package cpu

// Allocation-free hot paths. A figure sweep replays the same trace through
// its models thousands of times, and each replay would otherwise
// rebuild its reorder-buffer ring, event heap, memory port queues, and the
// blocks of memOps its accesses live in. The scratch structures here
// are recycled through sync.Pools so a steady-state replay performs no
// allocations beyond its Result: each parallel experiment worker naturally
// ends up with its own scratch, and single-threaded callers reuse one.

import (
	"math/bits"
	"sync"

	"dynsched/internal/consistency"
	"dynsched/internal/trace"
)

// opBlockSize is the number of memOps per ring block.
const opBlockSize = 1024

// opRing hands out memOps in program order from fixed-size blocks that
// never move, so a *memOp stays valid for as long as its access is live.
// The blocks in use form a FIFO whose last block is being filled. When it
// fills, the caller passes a low-water mark, a sequence number below which
// no access is live any more, and the oldest block is reused if its last
// (youngest) op is below the mark; otherwise a free block is taken, or a
// new one made. A replay therefore holds memory for its in-flight accesses,
// not for every memory instruction of its trace, and the mark is computed
// once per block, not per access.
//
// A live access is one some structure of the replay may still read. Every
// model keeps its unperformed accesses in a memPort, whose candidates and
// kind-queue live parts hold only accesses at or after their kind's front,
// since an unperformed access is never older than its kind's oldest
// unperformed one; queue slots before a queue's head are never read. A
// pending perform event names an issued access that has not performed. The
// mark is memPort.low of what the model itself still reads:
//
//   - DS: the ROB head. ROB entries are at or after it, and a retired
//     entry's stale mop is read only behind en.seq == e.seq for a perform
//     event.
//   - SSBR/SS: the access being decoded. regOwner holds only unperformed
//     loads, being cleared on perform. A performed acquire leaves the port
//     but blocks until its wall, and an SSBR load blocks until it
//     performs; while either blocks, the processor decodes nothing, so no
//     block fills.
//
// memOp contains no pointers, so pooled blocks pin nothing between runs.
type opRing struct {
	used [][]memOp // blocks in allocation order; the last is being filled
	free [][]memOp // blocks no replay is using
	cur  []memOp   // used[len(used)-1], or nil before the first block
	n    int       // ops handed out from cur
	peak int       // most blocks in use at once (tests)
}

// full reports whether the next newMemOp needs advance first.
func (r *opRing) full() bool { return r.n == len(r.cur) }

// advance starts a new current block. low is the replay's low-water mark:
// no access with a smaller sequence number will be read again.
func (r *opRing) advance(low int) {
	if len(r.used) > 0 && r.used[0][opBlockSize-1].seq < low {
		b := r.used[0]
		copy(r.used, r.used[1:])
		r.used[len(r.used)-1] = b
	} else {
		var b []memOp
		if k := len(r.free); k > 0 {
			b, r.free = r.free[k-1], r.free[:k-1]
		} else {
			b = make([]memOp, opBlockSize)
		}
		r.used = append(r.used, b)
		r.peak = max(r.peak, len(r.used))
	}
	r.cur, r.n = r.used[len(r.used)-1], 0
}

// newMemOp hands out the access record for e, the event with sequence
// number seq, decoded at cycle t. The ring must not be full.
func (r *opRing) newMemOp(seq int, e *trace.Event, t uint64) *memOp {
	op := &r.cur[r.n]
	r.n++
	*op = memOp{}
	op.seq = seq
	op.instr = e.Instr
	op.pc = e.PC
	op.kind = consistency.KindOf(e.Instr.Op)
	op.addr = e.Addr
	op.latency = e.Latency
	op.wait = e.Wait
	op.miss = e.Miss
	op.destReg = e.Instr.Dst
	op.decodedAt = t
	return op
}

// ringPeakHook, when set, receives each replay's opRing.peak as the replay
// ends (tests).
var ringPeakHook func(blocks int)

// reset frees every block for the next replay.
func (r *opRing) reset() {
	if ringPeakHook != nil {
		ringPeakHook(r.peak)
	}
	r.free = append(r.free, r.used...)
	clear(r.used)
	r.used, r.cur, r.n, r.peak = r.used[:0], nil, 0, 0
}

// dsScratch is the reusable working set of one DS replay: the
// reorder-buffer ring, the event and dispatch heaps, the memory port's
// candidate list and per-kind queues, the account's credit stack, and the
// memOp ring.
type dsScratch struct {
	entries  []dsEntry
	evq      eventHeap
	dispatch seqHeap
	port     memPort
	runs     []stallRun // the account's credit stack
	ops      opRing
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
// entries, ring ops in the memory port — so a pooled scratch never pins a
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
	s.ops.reset()
	dsPool.Put(s)
}

// staticScratch is the reusable working set of one SS or SSBR replay: the
// perform-event heap, the memory port and the memOp ring.
type staticScratch struct {
	evq  eventHeap
	port memPort
	ops  opRing
}

var staticPool = sync.Pool{New: func() any { return &staticScratch{port: newMemPort()} }}

func getStaticScratch() *staticScratch {
	return staticPool.Get().(*staticScratch)
}

func (s *staticScratch) release() {
	s.port.reset()
	s.evq = s.evq[:0]
	s.ops.reset()
	staticPool.Put(s)
}
