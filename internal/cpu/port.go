package cpu

import (
	"math"
	"math/bits"

	"dynsched/internal/consistency"
)

// memPort is the view SSBR, SS and DS share of a processor's in-flight
// memory accesses at its lockup-free, single-ported cache, kept
// incrementally so the port never rescans them. It holds:
//
//   - cands: the accesses that are ready to issue and have not, in program
//     order — the only ones the port looks at each cycle. In DS, loads and
//     acquires are ready once their address operands are, stores and
//     releases once they have retired into the store buffer; in SSBR and
//     SS every access is ready when it enters the port;
//   - kinds: one program-ordered queue of unperformed accesses per
//     consistency.Kind bit (load, store, acquire, release; a barrier sits
//     in both the acquire and the release queue);
//   - front: the consistency summary, the sequence number of the oldest
//     unperformed access of each kind (math.MaxInt for none), updated when
//     an access is added and when a queue's front performs.
//
// consistency.MayIssue only asks whether some older access of each kind is
// still unperformed, so the Pending summary for an access is one
// comparison per kind against front. A queue drops performed accesses only
// from its front: one that performs behind an older unperformed access
// stays until it gets there.
type memPort struct {
	cands []*memOp
	kinds [numKinds]opQueue
	front fronts

	// What the candidates hold, for issueMem to stop scanning early: the
	// number of each consistency.Kind value, a mask with bit 1<<kind set
	// for each kind present, and the number of misses no prefetch has
	// started for.
	candKinds [1 << numKinds]int
	present   uint16
	unfetched int

	outMiss    int    // issued, unperformed misses: the MSHRs in use
	prefetches uint64 // prefetches started
}

// Queue k of a memPort holds the unperformed accesses whose kind has bit
// 1<<k.
const (
	qLoad    = iota // consistency.Load
	qStore          // consistency.Store
	qAcquire        // consistency.Acquire
	qRelease        // consistency.Release
	numKinds
)

// fronts is a sequence number per kind: the oldest unperformed access of
// that kind, math.MaxInt for a kind with none.
type fronts [numKinds]int

// opQueue is a program-ordered queue of accesses whose entries before head
// have all performed, and whose entry at head (if any) has not. push reuses
// the backing array by sliding the live part down when at least half of it
// is dead, so a pooled queue stops allocating once it has reached its
// working size. The slots a slide leaves behind are not cleared: they
// point into the replay's own opRing blocks, which its scratch keeps
// anyway.
type opQueue struct {
	ops  []*memOp
	head int
}

func (q *opQueue) push(op *memOp) {
	if len(q.ops) == cap(q.ops) && 2*q.head >= len(q.ops) {
		n := copy(q.ops, q.ops[q.head:])
		q.ops, q.head = q.ops[:n], 0
	}
	q.ops = append(q.ops, op)
}

// live returns the queue from its oldest unperformed access on.
func (q *opQueue) live() []*memOp { return q.ops[q.head:] }

// newMemPort returns an empty port.
func newMemPort() memPort {
	var p memPort
	p.reset()
	return p
}

// add enters a newly decoded access in its kind queues.
func (p *memPort) add(op *memOp) {
	for m := uint8(op.kind); m != 0; m &= m - 1 {
		k := bits.TrailingZeros8(m)
		p.kinds[k].push(op)
		if p.front[k] == math.MaxInt {
			p.front[k] = op.seq
		}
	}
}

// ready enters op, which has just become able to issue, among the
// candidates. Accesses mostly become ready in program order, so the
// insertion walks back from the end.
func (p *memPort) ready(op *memOp) {
	p.candKinds[op.kind]++
	p.present |= 1 << op.kind
	if op.miss {
		p.unfetched++
	}
	p.cands = append(p.cands, op)
	i := len(p.cands) - 1
	for ; i > 0 && p.cands[i-1].seq > op.seq; i-- {
		p.cands[i] = p.cands[i-1]
	}
	p.cands[i] = op
}

// prefetch records that a prefetch has started for op, a candidate miss,
// at cycle t.
func (p *memPort) prefetch(op *memOp, t uint64) {
	op.prefetched, op.prefetchedAt = true, t
	p.unfetched--
	p.prefetches++
}

// issue removes cands[i], which the cache port has just accepted.
func (p *memPort) issue(i int) {
	op := p.cands[i]
	if p.candKinds[op.kind]--; p.candKinds[op.kind] == 0 {
		p.present &^= 1 << op.kind
	}
	if op.miss && !op.prefetched {
		p.unfetched--
	}
	last := len(p.cands) - 1
	if i < last {
		copy(p.cands[i:], p.cands[i+1:])
	}
	p.cands[last] = nil
	p.cands = p.cands[:last]
}

// perform marks op performed and frees its MSHR. Where op was the front of
// its kind (sequence numbers are unique, so a front equal to op.seq is op),
// the queue drops it and every performed access behind it.
func (p *memPort) perform(op *memOp) {
	op.performed = true
	if op.usedMSHR {
		p.outMiss--
	}
	for k, f := range p.front {
		if f != op.seq {
			continue
		}
		q := &p.kinds[k]
		for q.head < len(q.ops) && q.ops[q.head].performed {
			q.head++
		}
		p.front[k] = math.MaxInt
		if q.head < len(q.ops) {
			p.front[k] = q.ops[q.head].seq
		}
	}
}

// pending is the consistency.Pending summary of the unperformed accesses
// older than seq. Each count is 0 or 1: MayIssue only tests for zero.
func (f *fronts) pending(seq int) consistency.Pending {
	return consistency.Pending{
		Loads:    b2i(f[qLoad] < seq),
		Stores:   b2i(f[qStore] < seq),
		Acquires: b2i(f[qAcquire] < seq),
		Releases: b2i(f[qRelease] < seq),
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// oldest returns the oldest unperformed access of any kind, or nil.
func (p *memPort) oldest() *memOp {
	var o *memOp
	for k := range p.kinds {
		if live := p.kinds[k].live(); len(live) > 0 && (o == nil || live[0].seq < o.seq) {
			o = live[0]
		}
	}
	return o
}

// forwardable reports whether an unperformed store to addr is older than
// seq (store-buffer forwarding). It walks the store queue only up to seq.
func (p *memPort) forwardable(seq int, addr uint64) bool {
	for _, op := range p.kinds[qStore].live() {
		if op.seq >= seq {
			break
		}
		if !op.performed && op.addr == addr {
			return true
		}
	}
	return false
}

// lookup returns the unperformed access with sequence number seq and
// consistency kind k, or nil. It searches the program-ordered queue of
// the lowest kind bit of k, from its oldest unperformed access on.
func (p *memPort) lookup(seq int, k consistency.Kind) *memOp {
	q := p.kinds[bits.TrailingZeros8(uint8(k))].live()
	lo, hi := 0, len(q)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); q[m].seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(q) && q[lo].seq == seq && !q[lo].performed {
		return q[lo]
	}
	return nil
}

// low is the opRing low-water mark of a replay whose own structures read
// no access older than seq: seq, or the port's front of some kind if that
// is older (see opRing).
func (p *memPort) low(seq int) int {
	for _, f := range p.front {
		seq = min(seq, f)
	}
	return seq
}

// reset empties the port, keeping its backing arrays.
func (p *memPort) reset() {
	clear(p.cands)
	p.cands = p.cands[:0]
	clear(p.candKinds[:])
	p.present, p.unfetched = 0, 0
	p.outMiss, p.prefetches = 0, 0
	for k := range p.kinds {
		q := &p.kinds[k]
		clear(q.ops)
		q.ops, q.head = q.ops[:0], 0
		p.front[k] = math.MaxInt
	}
}
