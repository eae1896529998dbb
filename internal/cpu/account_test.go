package cpu

import (
	"reflect"
	"testing"

	"dynsched/internal/critpath"
	"dynsched/internal/obs"
)

// accountArm is one account with every instrument attached: a collector,
// a timeline with a short interval so stretches cross many boundaries, and
// occupancy histograms in a private registry.
type accountArm struct {
	acct account
	cp   *critpath.Collector
	tl   *obs.Timeline
	reg  *obs.Registry
}

func newAccountArm(credits bool) *accountArm {
	a := &accountArm{cp: critpath.NewCollector(), tl: obs.NewTimeline(2, 1024), reg: obs.NewRegistry()}
	cfg := Config{CritPath: a.cp, Timeline: a.tl, Metrics: a.reg}
	a.acct = newAccount(&cfg)
	a.acct.credits = credits
	for i, name := range []string{"a", "b", "c"} {
		a.acct.histogram(&cfg, i, name, bufferBuckets)
	}
	return a
}

// step accounts one cycle the way a cycle-stepped loop body does; instr is
// the instruction count before the cycle.
func (a *accountArm) step(t uint64, s stall, occ [3]uint64, instr uint64) {
	a.acct.sample(t, instr)
	a.acct.charge(s, 1)
	a.acct.occupy(occ[0], occ[1], occ[2])
	if a.acct.reg != nil {
		a.acct.observe(1)
	}
}

// TestBulkChargeMatchesRepeatedCharges is the property the time-skip and
// BASE paths rest on: charging a stall k times, cycle by cycle, leaves
// exactly the state of one bulk charge of k — the Breakdown, the cause
// counts, every timeline boundary crossed on the way, and the occupancy
// integrals and histograms.
func TestBulkChargeMatchesRepeatedCharges(t *testing.T) {
	read := stall{catRead, critpath.ReadLat}
	dep := stall{catBranch, critpath.DataDep}
	for _, k := range []uint64{1, 2, 3, 4, 7, 13, 64} {
		step, bulk := newAccountArm(true), newAccountArm(true)
		occ := [3]uint64{5, 2, 1}
		var tc uint64
		// A mixed prefix, stepped identically in both arms.
		for _, s := range []stall{busyCycle, read, busyCycle, dep, dep} {
			step.step(tc, s, [3]uint64{tc, 1, 0}, 3)
			bulk.step(tc, s, [3]uint64{tc, 1, 0}, 3)
			tc++
		}
		// The stretch: k identical cycles. The bulk arm steps the first
		// (the time-skip fixed point) and repeats it k-1 times.
		for i := uint64(0); i < k; i++ {
			step.step(tc+i, read, occ, 4)
		}
		bulk.step(tc, read, occ, 4)
		bulk.acct.repeat(k-1, 4)
		tc += k
		// A suffix after the jump lands, retiring one instruction.
		step.step(tc, busyCycle, [3]uint64{1, 1, 1}, 4)
		bulk.step(tc, busyCycle, [3]uint64{1, 1, 1}, 4)
		tc++

		sb, bb := step.acct.finish(tc, 5), bulk.acct.finish(tc, 5)
		if sb != bb {
			t.Errorf("k=%d: breakdown stepped %v, bulk %v", k, sb, bb)
		}
		if sb.Total() != tc || sb.Read != k+1 {
			t.Errorf("k=%d: breakdown %v does not cover %d cycles with %d read stalls", k, sb, tc, k+1)
		}
		if sa, ba := step.cp.Attribution(), bulk.cp.Attribution(); sa != ba {
			t.Errorf("k=%d: attribution stepped %v, bulk %v", k, sa, ba)
		}
		if step.acct.occ != bulk.acct.occ {
			t.Errorf("k=%d: occupancy integrals stepped %v, bulk %v", k, step.acct.occ, bulk.acct.occ)
		}
		ss, bs := step.tl.Samples(), bulk.tl.Samples()
		if len(ss) < 2 || !reflect.DeepEqual(ss, bs) {
			t.Errorf("k=%d: timeline samples differ:\nstepped %+v\nbulk    %+v", k, ss, bs)
		}
		if sf, bf := obs.SnapshotFNV(step.reg.Snapshot()), obs.SnapshotFNV(bulk.reg.Snapshot()); sf != bf {
			t.Errorf("k=%d: histogram snapshot FNV stepped %s, bulk %s", k, sf, bf)
		}
	}
}

// TestBASEBulkMatchesStepping checks the other bulk shape: BASE charges an
// instruction's busy cycle and its whole stall stretch in two bulk charges
// with no occupancy, and every boundary inside must read as if the cycles
// had been stepped.
func TestBASEBulkMatchesStepping(t *testing.T) {
	step, bulk := newAccountArm(false), newAccountArm(false)
	var tc uint64
	for i, d := range []uint64{0, 49, 0, 3, 120, 0} {
		instr := uint64(i + 1) // BASE counts an instruction from its busy cycle on
		s := stall{catWrite, critpath.WriteLat}
		step.acct.sample(tc, instr-1)
		step.acct.charge(busyCycle, 1)
		tc++
		for j := uint64(0); j < d; j++ {
			step.acct.sample(tc, instr)
			step.acct.charge(s, 1)
			tc++
		}
		bulk.acct.bulk(busyCycle, 1, instr)
		if d > 0 {
			bulk.acct.bulk(s, d, instr)
		}
	}
	// Stepping samples boundary tc at the top of a body; the bulk arm
	// records the boundaries up to and including its last charged cycle.
	step.acct.sample(tc, 6)
	if sb, bb := step.acct.finish(tc, 6), bulk.acct.finish(tc, 6); sb != bb {
		t.Errorf("breakdown stepped %v, bulk %v", sb, bb)
	}
	if sa, ba := step.cp.Attribution(), bulk.cp.Attribution(); sa != ba {
		t.Errorf("attribution stepped %v, bulk %v", sa, ba)
	}
	if ss, bs := step.tl.Samples(), bulk.tl.Samples(); len(ss) < 10 || !reflect.DeepEqual(ss, bs) {
		t.Errorf("timeline samples differ:\nstepped %+v\nbulk    %+v", ss, bs)
	}
}

// TestUnchargeLIFO checks that burst-retirement credit takes stall cycles
// back in exactly the reverse charge order, one cycle at a time, across
// run-length boundaries, decrementing the category and the cause together
// and moving the cycle to busy.
func TestUnchargeLIFO(t *testing.T) {
	a := newAccountArm(true)
	readDep := stall{catRead, critpath.DataDep}
	branchDep := stall{catBranch, critpath.DataDep} // same cause, new run
	refill := stall{catBranch, critpath.BranchRefill}
	a.acct.charge(readDep, 2)
	a.acct.charge(branchDep, 1)
	a.acct.charge(refill, 1)
	a.acct.charge(readDep, 1) // separate run after the branch runs

	for i, s := range []stall{readDep, refill, branchDep, readDep, readDep} {
		cats, causes := a.acct.cats, a.cp.CycleCounts()
		a.acct.credit(1, 1)
		if a.acct.cats[s.cat] != cats[s.cat]-1 || a.acct.cats[catBusy] != cats[catBusy]+1 {
			t.Fatalf("pop %d: categories %v -> %v, want %v moved to busy", i, cats, a.acct.cats, s)
		}
		if got := a.cp.CycleCounts(); got[s.cause] != causes[s.cause]-1 {
			t.Fatalf("pop %d: cycles[%v] = %d, want %d", i, s.cause, got[s.cause], causes[s.cause]-1)
		}
	}
	a.acct.credit(1, 1) // empty stack: no-op, no underflow
	if bd := a.acct.breakdown(); bd != (Breakdown{Busy: 5}) {
		t.Errorf("after draining, breakdown = %v, want 5 busy cycles", bd)
	}
	for cause, n := range a.cp.CycleCounts() {
		if n != 0 {
			t.Errorf("after draining, cycles[%v] = %d, want 0", critpath.Cause(cause), n)
		}
	}
}

// TestCreditInIssueWidthUnits checks that excess retirements accumulate
// across cycles and reclaim one stall cycle per issue width.
func TestCreditInIssueWidthUnits(t *testing.T) {
	var a account
	a.credits = true
	a.charge(stall{catRead, critpath.ReadLat}, 3)
	a.credit(3, 4) // 3 < 4: nothing yet
	if a.cats[catRead] != 3 {
		t.Fatalf("read = %d after 3 excess at width 4, want 3", a.cats[catRead])
	}
	a.credit(6, 4) // 9 owed: two cycles, 1 left over
	if a.cats[catRead] != 1 || a.cats[catBusy] != 2 || a.owed != 1 {
		t.Errorf("after 9 excess at width 4: cats %v owed %d, want read 1, busy 2, owed 1", a.cats, a.owed)
	}
}

func TestEdgeLastTracksMostRecentStall(t *testing.T) {
	a := newAccountArm(true)
	a.acct.edgeLast() // before any stall: busy
	a.acct.charge(stall{catRead, critpath.MSHRFull}, 1)
	a.acct.edgeLast()
	a.acct.charge(busyCycle, 1) // busy cycles are no stall
	a.acct.credit(1, 1)         // nor does a credit pop change the last stall
	a.acct.edgeLast()
	a.cp.Edge(critpath.InOrder)
	a.acct.finish(2, 4)
	attr := a.cp.Attribution()
	if attr.Edges[critpath.Busy] != 1 || attr.Edges[critpath.MSHRFull] != 2 || attr.Edges[critpath.InOrder] != 1 {
		t.Errorf("edges = %v", attr.Edges)
	}
	if attr.EdgeSum() != 4 {
		t.Errorf("EdgeSum() = %d, want 4", attr.EdgeSum())
	}

	var bare account // no collector: edges are nil-safe no-ops
	bare.charge(stall{catRead, critpath.ReadLat}, 1)
	bare.edgeLast()
}
