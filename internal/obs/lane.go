package obs

// Lane is one labelled row of a Progress ticker. The parallel experiment
// scheduler replays several applications at once, and before lanes existed
// every concurrent simulation published into the ticker's single
// label/counter pair, clobbering each other's output. A lane gives each
// concurrent simulation its own label and counters; the ticker prints one
// row per live lane and an aggregate total, so `-progress -j 8` output stays
// readable.
//
// Lanes follow the package's nil-safety contract: Progress.Lane on a nil
// ticker returns a nil lane, and every method of a nil *Lane is a no-op, so
// simulation loops publish unconditionally.

import "sync/atomic"

// Lane is a per-label progress channel. Create one with Progress.Lane; call
// Done when the labelled work completes so the ticker can retire the row
// into the aggregate totals.
type Lane struct {
	label  string
	instrs atomic.Uint64 // absolute instructions for this lane
	cycles atomic.Uint64 // absolute simulated cycles for this lane
	total  atomic.Uint64 // expected instructions (0 = unknown)
	done   atomic.Bool

	// Reporter-local rate state, touched only by Progress.report under the
	// ticker's mutex.
	lastInstr, lastCycle uint64
}

// Lane registers a new labelled row and returns it. Each call creates a
// distinct lane, so two concurrent simulations of the same application get
// separate rows. Safe on a nil receiver (returns a nil, no-op lane).
func (p *Progress) Lane(label string) *Lane {
	if p == nil {
		return nil
	}
	l := &Lane{label: label}
	p.mu.Lock()
	p.lanes = append(p.lanes, l)
	p.mu.Unlock()
	return l
}

// Publish stores the lane's absolute progress; simulation loops call it
// every few thousand steps (two atomic stores). Safe on a nil receiver.
func (l *Lane) Publish(instrs, cycles uint64) {
	if l == nil {
		return
	}
	l.instrs.Store(instrs)
	l.cycles.Store(cycles)
}

// Add increments the lane's absolute counters; used by drivers that flush
// deltas rather than absolutes. Safe on a nil receiver.
func (l *Lane) Add(instrs, cycles uint64) {
	if l == nil {
		return
	}
	l.instrs.Add(instrs)
	l.cycles.Add(cycles)
}

// SetTotal declares the lane's expected instruction count, enabling a
// per-lane ETA. Safe on a nil receiver.
func (l *Lane) SetTotal(n uint64) {
	if l == nil {
		return
	}
	l.total.Store(n)
}

// Done marks the lane complete. The ticker prints one final row for it and
// folds its counts into the aggregate totals. Safe on a nil receiver.
func (l *Lane) Done() {
	if l == nil {
		return
	}
	l.done.Store(true)
}
