package cpu

// Allocation-free hot paths. A figure sweep replays the same trace through
// its models thousands of times, and each replay would otherwise
// rebuild its reorder-buffer ring, event heap, memory port queues, and one
// heap-allocated memOp per memory instruction. The scratch structures here
// are recycled through sync.Pools so a steady-state replay performs no
// allocations beyond its Result: each parallel experiment worker naturally
// ends up with its own scratch, and single-threaded callers reuse one.

import (
	"math/bits"
	"sync"

	"dynsched/internal/consistency"
	"dynsched/internal/trace"
)

// arenaBlockSize is the number of memOps per arena block. Blocks are never
// reallocated, so pointers handed out by alloc stay valid for the arena's
// lifetime — the property the port/entries cross-references rely on.
const arenaBlockSize = 1024

// opArena hands out memOps from fixed-size blocks and recycles all of them
// with one reset. memOp contains no pointers, so retained blocks pin nothing
// between runs.
type opArena struct {
	blocks [][]memOp
	bi, n  int // next free slot: blocks[bi][n], with n < arenaBlockSize
}

func (a *opArena) alloc() *memOp {
	if a.bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]memOp, arenaBlockSize))
	}
	op := &a.blocks[a.bi][a.n]
	*op = memOp{}
	a.n++
	if a.n == arenaBlockSize {
		a.bi++
		a.n = 0
	}
	return op
}

func (a *opArena) reset() { a.bi, a.n = 0, 0 }

// newMemOp allocates an access record for e from the arena.
func (a *opArena) newMemOp(seq int, e *trace.Event) *memOp {
	op := a.alloc()
	op.seq = seq
	op.instr = e.Instr
	op.pc = e.PC
	op.kind = consistency.KindOf(e.Instr.Op)
	op.addr = e.Addr
	op.latency = e.Latency
	op.wait = e.Wait
	op.miss = e.Miss
	op.destReg = e.Instr.Dst
	return op
}

// dsScratch is the reusable working set of one DS replay: the
// reorder-buffer ring, the event and dispatch heaps, the memory port's
// candidate list and per-kind queues, the account's credit stack, and the
// memOp arena.
type dsScratch struct {
	entries  []dsEntry
	evq      eventHeap
	dispatch seqHeap
	port     memPort
	runs     []stallRun // the account's credit stack
	arena    opArena
}

var dsPool = sync.Pool{New: func() any { return &dsScratch{port: newMemPort()} }}

// getDSScratch returns a scratch whose reorder-buffer ring has the smallest
// power-of-two size that holds window entries, all zeroed, so a sequence
// number maps to its slot with a mask. window is at most MaxWindow.
func getDSScratch(window int) *dsScratch {
	s := dsPool.Get().(*dsScratch)
	ring := 1 << bits.Len(uint(window-1))
	if cap(s.entries) < ring {
		s.entries = make([]dsEntry, ring)
	}
	s.entries = s.entries[:ring]
	return s
}

// release clears every pointer the run left behind — trace events in the
// entries, arena ops in the memory port — so a pooled scratch never pins a
// trace, then returns it to the pool.
func (s *dsScratch) release() {
	for i := range s.entries {
		w := s.entries[i].waiters
		s.entries[i] = dsEntry{waiters: w[:0]}
	}
	s.port.reset()
	s.evq = s.evq[:0]
	s.dispatch = s.dispatch[:0]
	s.runs = s.runs[:0]
	s.arena.reset()
	dsPool.Put(s)
}

// staticScratch is the reusable working set of one SS or SSBR replay.
type staticScratch struct {
	ops   []*memOp
	wake  []uint64 // opWindow completion-time heap (capacity reuse)
	arena opArena
}

var staticPool = sync.Pool{New: func() any { return new(staticScratch) }}

func getStaticScratch() *staticScratch {
	return staticPool.Get().(*staticScratch)
}

func (s *staticScratch) release() {
	for i := range s.ops {
		s.ops[i] = nil
	}
	s.ops = s.ops[:0]
	s.wake = s.wake[:0]
	s.arena.reset()
	staticPool.Put(s)
}
