package cpu

// Tests for the extension features: the two SC-boosting techniques of
// Gharachorloo et al. [8] (non-binding prefetch and speculative loads,
// discussed in §6 of the paper) and the window-occupancy diagnostic.

import (
	"testing"

	"dynsched/internal/consistency"
	"dynsched/internal/trace"
)

// independentMissTrace: repeated pattern of an independent read miss
// followed by computation — SC serializes the misses, so the prefetch and
// speculation techniques have room to help.
func independentMissTrace(reps int) *trace.Trace {
	b := newTB()
	for r := 0; r < reps; r++ {
		b.load(2, 1, uint64(r)*64, true)
		for i := 0; i < 20; i++ {
			b.alu(3, 4, 4)
		}
		b.alu(5, 2, 2)
	}
	return b.halt()
}

func TestPrefetchBoostsSC(t *testing.T) {
	tr := independentMissTrace(20)
	plain, err := replay(ArchDS, tr, cfg(consistency.SC, 256))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(consistency.SC, 256)
	c.Prefetch = true
	pf, err := replay(ArchDS, tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Prefetches == 0 {
		t.Fatal("no prefetches issued under SC with blocked misses")
	}
	if float64(pf.Breakdown.Total()) > 0.75*float64(plain.Breakdown.Total()) {
		t.Errorf("prefetch should substantially boost SC: %d vs plain %d",
			pf.Breakdown.Total(), plain.Breakdown.Total())
	}
}

func TestPrefetchNoOpUnderRC(t *testing.T) {
	// Under RC nothing is consistency-blocked, so prefetching changes
	// nothing and issues (almost) no prefetches.
	tr := independentMissTrace(20)
	plain, err := replay(ArchDS, tr, cfg(consistency.RC, 256))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(consistency.RC, 256)
	c.Prefetch = true
	pf, err := replay(ArchDS, tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Breakdown.Total() != plain.Breakdown.Total() {
		t.Errorf("prefetch changed RC timing: %d vs %d", pf.Breakdown.Total(), plain.Breakdown.Total())
	}
}

func TestSpeculativeLoadsApproachRC(t *testing.T) {
	tr := independentMissTrace(20)
	sc, err := replay(ArchDS, tr, cfg(consistency.SC, 256))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(consistency.SC, 256)
	c.SpeculativeLoads = true
	spec, err := replay(ArchDS, tr, c)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := replay(ArchDS, tr, cfg(consistency.RC, 256))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Breakdown.Total() >= sc.Breakdown.Total() {
		t.Errorf("speculative loads did not improve SC: %d vs %d",
			spec.Breakdown.Total(), sc.Breakdown.Total())
	}
	// Loads dominate this trace, so speculation should recover most of the
	// SC-to-RC gap (stores still obey SC).
	gap := float64(sc.Breakdown.Total() - rc.Breakdown.Total())
	closed := float64(sc.Breakdown.Total() - spec.Breakdown.Total())
	if closed < 0.6*gap {
		t.Errorf("speculation closed only %.0f%% of the SC→RC gap", 100*closed/gap)
	}
}

func TestSpeculativeLoadsForwardFromPendingStore(t *testing.T) {
	// A load from a pending store's address must forward even under SC when
	// speculation is enabled (the value comes from the same processor).
	b := newTB()
	b.store(1, 2, 64, true)
	b.load(3, 1, 64, false)
	b.tr.Events[1].Miss = true
	b.tr.Events[1].Latency = 50
	tr := b.halt()
	c := cfg(consistency.SC, 64)
	c.SpeculativeLoads = true
	res, err := replay(ArchDS, tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Total() > 60 {
		t.Errorf("speculative load did not forward: total = %d", res.Breakdown.Total())
	}
}

func TestOccupancyGrowsWithWindow(t *testing.T) {
	// A miss-heavy trace fills whatever window it is given.
	b := newTB()
	for r := 0; r < 40; r++ {
		b.load(2, 2, uint64(r)*64, true) // dependent chain keeps the ROB full
	}
	tr := b.halt()
	small, err := replay(ArchDS, tr, cfg(consistency.RC, 16))
	if err != nil {
		t.Fatal(err)
	}
	large, err := replay(ArchDS, tr, cfg(consistency.RC, 256))
	if err != nil {
		t.Fatal(err)
	}
	if small.AvgOccupancy <= 0 || large.AvgOccupancy <= 0 {
		t.Fatal("occupancy not measured")
	}
	if small.AvgOccupancy > 16 {
		t.Errorf("occupancy %f exceeds window 16", small.AvgOccupancy)
	}
	if large.AvgOccupancy <= small.AvgOccupancy {
		t.Errorf("bigger window should hold more: %f vs %f", large.AvgOccupancy, small.AvgOccupancy)
	}
}

func TestPrefetchRespectsNonBinding(t *testing.T) {
	// A prefetched access must still obey consistency for its real issue:
	// under SC the loads remain ordered even with prefetching (correct
	// ordering, better timing). We verify ordering indirectly: total time
	// is at least the instruction count plus one residual latency.
	tr := independentMissTrace(10)
	c := cfg(consistency.SC, 256)
	c.Prefetch = true
	res, err := replay(ArchDS, tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Total() < res.Instructions {
		t.Errorf("total %d below instruction count %d", res.Breakdown.Total(), res.Instructions)
	}
}
