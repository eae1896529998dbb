package cpu

// Cycle accounting shared by the processor models. A model decides once per
// charged cycle what the cycle was — a stall: its Figure 3 category and its
// fine critical-path cause — and an account does everything else with that
// decision: the Breakdown counters, the critical-path collector, the DS
// burst-retirement credit, the time-skip bulk charge, the occupancy
// integrals and histograms, and the timeline snapshots.

import (
	"dynsched/internal/consistency"
	"dynsched/internal/critpath"
	"dynsched/internal/obs"
)

// Figure 3 categories: the Breakdown buckets an account counts.
const (
	catSync uint8 = iota
	catRead
	catWrite
	catBranch
	catOther
	catBusy
	numCats
)

// stall classifies one charged cycle as a Figure 3 category plus a fine
// critical-path cause. The category is not a function of the cause — a data
// dependence is read, write or branch time depending on the waiting
// instruction, and a consistency stall takes the category of the oldest
// unperformed access — so the two travel together.
type stall struct {
	cat   uint8
	cause critpath.Cause
}

// busyCycle is a cycle of useful work. The collector is not charged for it:
// its busy bucket is the residual of the stall buckets.
var busyCycle = stall{cat: catBusy, cause: critpath.Busy}

// accessStall is the stall of waiting for an issued access of kind k to
// perform: its own memory latency.
func accessStall(k consistency.Kind) stall {
	switch {
	case k&consistency.Acquire != 0:
		return stall{catSync, critpath.SyncWait}
	case k&(consistency.Store|consistency.Release) != 0:
		return stall{catWrite, critpath.WriteLat}
	default:
		return stall{catRead, critpath.ReadLat}
	}
}

// stallRun is a run-length-encoded stretch of identical stall charges on the
// credit stack. The encoding keeps the stack O(transitions) rather than
// O(cycles), so a time-skip bulk charge is one push, while pops still take
// one cycle at a time in exactly the order a flat per-cycle stack would.
type stallRun struct {
	s stall
	n uint64
}

// account is one replay's cycle accounting. The zero value counts cycles
// with every hook off; newAccount attaches the Config's collector and
// timeline.
type account struct {
	cats [numCats]uint64 // cycles charged per category
	last stall           // the most recent stall charge

	credits bool       // keep the credit stack (DS burst retirement)
	runs    []stallRun // LIFO of stall charges, run-length encoded
	owed    int        // excess retirements not yet credited

	// Occupancy integrals (Σ per-cycle occupancy) of the model's three
	// structures, the occupancies of the latest cycle, and the optional
	// histograms that observe them, published to reg under histName at
	// finish.
	occ      [3]uint64
	lastOcc  [3]uint64
	hist     [3]*obs.LocalHistogram
	histName [3]string
	reg      *obs.Registry

	cp *critpath.Collector
	tl *obs.Timeline
}

func newAccount(cfg *Config) account {
	return account{cp: cfg.CritPath, tl: cfg.Timeline}
}

// histogram makes the account observe structure i's occupancy into a
// histogram it publishes at finish (a no-op without Config.Metrics).
func (a *account) histogram(cfg *Config, i int, name string, buckets []uint64) {
	if cfg.Metrics != nil {
		a.hist[i] = obs.NewLocalHistogram(buckets...)
		a.histName[i] = obs.Prefixed(cfg.MetricsPrefix, name)
		a.reg = cfg.Metrics
	}
}

// cycles returns the cycles charged so far.
func (a *account) cycles() uint64 {
	var n uint64
	for _, c := range a.cats {
		n += c
	}
	return n
}

// busy charges one cycle of useful work: charge(busyCycle, 1) for the
// per-cycle loops, kept small enough to inline.
func (a *account) busy() { a.cats[catBusy]++ }

// charge charges n cycles of s.
func (a *account) charge(s stall, n uint64) {
	a.cats[s.cat] += n
	if s.cat != catBusy {
		a.last = s
		a.cp.StallN(s.cause, n)
		if a.credits {
			a.push(s, n)
		}
	}
}

// push records n stall cycles of s on the credit stack.
func (a *account) push(s stall, n uint64) {
	if l := len(a.runs) - 1; l >= 0 && a.runs[l].s == s {
		a.runs[l].n += n
	} else {
		a.runs = append(a.runs, stallRun{s, n})
	}
}

// credit converts burst retirement into busy time. A cycle that retires
// more than width instructions proves that earlier stall cycles overlapped
// useful buffered work: every width excess retirements reclaim the most
// recently charged stall cycle, category and cause together.
func (a *account) credit(excess, width int) {
	a.owed += excess
	for a.owed >= width && len(a.runs) > 0 {
		r := &a.runs[len(a.runs)-1]
		a.cats[r.s.cat]--
		a.cats[catBusy]++
		a.cp.Uncharge(r.s.cause)
		if r.n--; r.n == 0 {
			a.runs = a.runs[:len(a.runs)-1]
		}
		a.owed -= width
	}
}

// edgeLast records a retiring instruction's last-arriving edge as the cause
// of the most recent stall, the wait it sat through (busy before any).
func (a *account) edgeLast() { a.cp.Edge(a.last.cause) }

// occupy adds one cycle's structure occupancies: the window, the store
// buffer and the outstanding misses. It runs once per stepped cycle, so it
// stays within the inliner's budget: three scalars rather than an array,
// and the histograms left to the caller, which observes the cycle with
// observe(1) when the account has them (reg != nil).
func (a *account) occupy(window, storeBuf, mshr uint64) {
	a.lastOcc = [3]uint64{window, storeBuf, mshr}
	a.occ[0] += window
	a.occ[1] += storeBuf
	a.occ[2] += mshr
}

// observe observes n cycles at the latest occupancies into the histograms.
func (a *account) observe(n uint64) {
	for i, h := range a.hist {
		h.ObserveN(a.lastOcc[i], n)
	}
}

// bulk charges n consecutive cycles of s. It first records every timeline
// boundary the stretch reaches, so a model that charges many cycles at once
// (BASE per instruction, the time-skip jumps) samples exactly the series a
// cycle-by-cycle charge would. A boundary inside the stretch sees the
// latest occupancies held through it; integrating them is repeat's part,
// as BASE has no structures.
func (a *account) bulk(s stall, n, instr uint64) {
	if a.tl != nil {
		done := a.cycles()
		for b := a.tl.Boundary(); b <= done+n; b = a.tl.Boundary() {
			a.tl.Record(a.point(b, instr, s, b-done))
		}
	}
	a.charge(s, n)
}

// repeat charges n more cycles identical to the latest stall cycle, its
// stall and its occupancies: the quiet stretch after a time-skip fixed
// point.
func (a *account) repeat(n, instr uint64) {
	a.bulk(a.last, n, instr)
	for i, o := range a.lastOcc {
		a.occ[i] += o * n
	}
	if a.reg != nil {
		a.observe(n)
	}
}

// sample records the timeline snapshot for boundary cycle once the charges
// cover cycles 0..cycle-1 (the top of a cycle-stepped loop body).
func (a *account) sample(cycle, instr uint64) {
	if cycle == a.tl.Boundary() { // never without a timeline: Boundary is then ^0
		a.record(cycle, instr)
	}
}

// record records the timeline snapshot of the charges so far at cycle. It
// is split from sample so that sample inlines into the cycle loops.
func (a *account) record(cycle, instr uint64) {
	a.tl.Record(a.point(cycle, instr, stall{}, 0))
}

// point is the cumulative timeline snapshot at cycle: the charges so far
// plus q more cycles of s at the latest occupancies.
func (a *account) point(cycle, instr uint64, s stall, q uint64) obs.TimelinePoint {
	c := a.cats
	c[s.cat] += q
	p := obs.TimelinePoint{
		Cycle: cycle, Instructions: instr,
		Busy: c[catBusy], Sync: c[catSync], Read: c[catRead],
		Write: c[catWrite], Branch: c[catBranch], Other: c[catOther],
		WindowSum:   a.occ[0] + a.lastOcc[0]*q,
		StoreBufSum: a.occ[1] + a.lastOcc[1]*q,
		MSHRSum:     a.occ[2] + a.lastOcc[2]*q,
	}
	if a.cp != nil {
		cc := a.cp.CycleCounts()
		if s.cat != catBusy {
			cc[s.cause] += q
		}
		p.Causes = append([]uint64(nil), cc[:]...)
	}
	return p
}

// breakdown returns the charges as a Figure 3 Breakdown.
func (a *account) breakdown() Breakdown {
	return Breakdown{
		Busy: a.cats[catBusy], Sync: a.cats[catSync], Read: a.cats[catRead],
		Write: a.cats[catWrite], Branch: a.cats[catBranch], Other: a.cats[catOther],
	}
}

// finish seals the accounting when the replay ends at cycle with instr
// instructions done, publishes the occupancy histograms, and returns the
// Breakdown.
func (a *account) finish(cycle, instr uint64) Breakdown {
	bd := a.breakdown()
	if a.tl != nil {
		a.tl.Finish(a.point(cycle, instr, stall{}, 0))
	}
	a.cp.Finish(bd.Total())
	for i, h := range a.hist {
		a.reg.MergeHistogram(a.histName[i], h)
	}
	return bd
}
