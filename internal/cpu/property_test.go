package cpu

// Property-based tests: the processor models must satisfy structural
// invariants on arbitrary well-formed traces, not just on the benchmark
// applications. Traces are generated from a seed so failures reproduce.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynsched/internal/bpred"
	"dynsched/internal/consistency"
	"dynsched/internal/isa"
	"dynsched/internal/trace"
)

// randomTrace builds a valid synthetic trace of about n instructions.
func randomTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{App: "random", NumCPUs: 16, MissPenalty: 50}
	pc := int32(0)
	emit := func(e trace.Event) {
		e.PC = pc
		e.NextPC = pc + 1
		pc++
		tr.Events = append(tr.Events, e)
	}
	reg := func() uint8 { return uint8(1 + rng.Intn(12)) }
	lockHeld := false
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 40: // ALU
			emit(trace.Event{Instr: isa.Instr{Op: isa.OpAdd, Dst: reg(), Src1: reg(), Src2: reg()}})
		case r < 60: // load
			miss := rng.Intn(4) == 0
			lat := uint32(1)
			if miss {
				lat = 50
			}
			emit(trace.Event{
				Instr: isa.Instr{Op: isa.OpLd, Dst: reg(), Src1: reg()},
				Addr:  uint64(rng.Intn(1024)) * 8, Miss: miss, Latency: lat,
			})
		case r < 75: // store
			miss := rng.Intn(4) == 0
			lat := uint32(1)
			if miss {
				lat = 50
			}
			emit(trace.Event{
				Instr: isa.Instr{Op: isa.OpSt, Src1: reg(), Src2: reg()},
				Addr:  uint64(rng.Intn(1024)) * 8, Miss: miss, Latency: lat,
			})
		case r < 90: // branch (not taken, so PC linking stays linear)
			emit(trace.Event{Instr: isa.Instr{Op: isa.OpBnez, Src1: reg(), Imm: int64(pc) + 2}})
		case r < 95 && !lockHeld: // acquire
			emit(trace.Event{
				Instr: isa.Instr{Op: isa.OpLock, Src1: reg()},
				Addr:  4096, Latency: 50, Wait: uint32(rng.Intn(80)), Miss: true,
			})
			lockHeld = true
		case lockHeld: // release
			emit(trace.Event{
				Instr: isa.Instr{Op: isa.OpUnlock, Src1: reg()},
				Addr:  4096, Latency: 1,
			})
			lockHeld = false
		default: // barrier
			emit(trace.Event{
				Instr: isa.Instr{Op: isa.OpBarrier, Imm: 1},
				Addr:  1, Latency: 50, Wait: uint32(rng.Intn(200)), Miss: true,
			})
		}
	}
	if lockHeld {
		emit(trace.Event{Instr: isa.Instr{Op: isa.OpUnlock, Src1: 1}, Addr: 4096, Latency: 1})
	}
	emit(trace.Event{Instr: isa.Instr{Op: isa.OpHalt}})
	tr.Events[len(tr.Events)-1].NextPC = pc - 1
	return tr
}

func TestRandomTracesAreValid(t *testing.T) {
	f := func(seed int64) bool {
		return randomTrace(seed, 200).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Invariant: every model's total time is at least the instruction count and
// at most BASE's total (overlap never hurts), and busy equals the
// instruction count at issue width 1.
func TestModelsBoundedByBase(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 300)
		base := replayBase(tr)
		n := uint64(tr.Len())
		if base.Breakdown.Busy != n {
			return false
		}
		for _, model := range consistency.Models {
			for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
				res, err := replay(arch, tr, Config{Model: model, Window: 64, Predictor: bpred.Perfect{}})
				if err != nil {
					t.Logf("seed %d %v/%s: %v", seed, model, arch, err)
					return false
				}
				total := res.Breakdown.Total()
				if total < n {
					t.Logf("seed %d %v/%s: total %d < instructions %d", seed, model, arch, total, n)
					return false
				}
				if total > base.Breakdown.Total() {
					t.Logf("seed %d %v/%s: total %d > BASE %d", seed, model, arch, total, base.Breakdown.Total())
					return false
				}
				if res.Breakdown.Busy != n {
					t.Logf("seed %d %v/%s: busy %d != n %d", seed, model, arch, res.Breakdown.Busy, n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Invariant: relaxing the consistency model never slows the DS processor
// down (SC >= PC, SC >= WO >= RC), within a small scheduling-noise slack.
func TestModelRelaxationMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 300)
		totals := make(map[consistency.Model]uint64)
		for _, m := range consistency.Models {
			res, err := replay(ArchDS, tr, Config{Model: m, Window: 128, Predictor: bpred.Perfect{}})
			if err != nil {
				return false
			}
			totals[m] = res.Breakdown.Total()
		}
		slack := func(a, b uint64) bool { return float64(b) <= 1.02*float64(a)+20 }
		if !slack(totals[consistency.SC], totals[consistency.PC]) {
			t.Logf("seed %d: PC %d > SC %d", seed, totals[consistency.PC], totals[consistency.SC])
			return false
		}
		if !slack(totals[consistency.SC], totals[consistency.WO]) {
			t.Logf("seed %d: WO %d > SC %d", seed, totals[consistency.WO], totals[consistency.SC])
			return false
		}
		if !slack(totals[consistency.WO], totals[consistency.RC]) {
			t.Logf("seed %d: RC %d > WO %d", seed, totals[consistency.RC], totals[consistency.WO])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Invariant: growing the DS window never slows execution down (within
// slack), and the breakdown categories always sum to the total.
func TestWindowMonotonicityAndSum(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 300)
		var prev uint64
		for i, w := range []int{16, 32, 64, 128, 256} {
			res, err := replay(ArchDS, tr, Config{Model: consistency.RC, Window: w, Predictor: bpred.Perfect{}})
			if err != nil {
				return false
			}
			b := res.Breakdown
			if b.Busy+b.Sync+b.Read+b.Write+b.Branch+b.Other != b.Total() {
				return false
			}
			if i > 0 && float64(b.Total()) > 1.02*float64(prev)+20 {
				t.Logf("seed %d: window %d total %d > previous %d", seed, w, b.Total(), prev)
				return false
			}
			prev = b.Total()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Invariant: the DS processor is deterministic — identical runs produce
// identical breakdowns.
func TestDSDeterministicOnRandomTraces(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 250)
		a, err1 := replay(ArchDS, tr, Config{Model: consistency.RC, Window: 64})
		b, err2 := replay(ArchDS, tr, Config{Model: consistency.RC, Window: 64})
		return err1 == nil && err2 == nil && a.Breakdown == b.Breakdown
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Invariant: the acquire wait component W is never hidden. Each wait only
// starts elapsing at the window head, after every older instruction has
// retired, so the waits serialize: total time is at least their sum (and
// at least the decode-limited instruction count). This is the paper's
// §4.1.2 bound — acquire overhead from contention and load imbalance is
// "impossible to hide with the techniques we are considering".
func TestAcquireWaitLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 300)
		var waits, nsync uint64
		for i := range tr.Events {
			if w := uint64(tr.Events[i].Wait); w > 0 {
				waits += w
				nsync++
			}
		}
		res, err := replay(ArchDS, tr, Config{Model: consistency.RC, Window: 256, Predictor: bpred.Perfect{}, IgnoreDataDeps: true})
		if err != nil {
			return false
		}
		total := res.Breakdown.Total()
		// One boundary cycle of slack per waiting sync op: its wall starts
		// on a cycle that may also retire older instructions.
		if total+nsync < waits {
			t.Logf("seed %d: total %d < serialized waits %d", seed, total, waits)
			return false
		}
		if total < uint64(tr.Len()) {
			t.Logf("seed %d: total %d < decode bound %d", seed, total, tr.Len())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Invariant: perfect branch prediction and ignoring data dependences never
// hurt.
func TestOracleKnobsNeverHurt(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 300)
		plain, err := replay(ArchDS, tr, Config{Model: consistency.RC, Window: 64})
		if err != nil {
			return false
		}
		pbp, err := replay(ArchDS, tr, Config{Model: consistency.RC, Window: 64, Predictor: bpred.Perfect{}})
		if err != nil {
			return false
		}
		nd, err := replay(ArchDS, tr, Config{Model: consistency.RC, Window: 64, Predictor: bpred.Perfect{}, IgnoreDataDeps: true})
		if err != nil {
			return false
		}
		ok := func(better, worse uint64) bool { return float64(better) <= 1.02*float64(worse)+20 }
		return ok(pbp.Breakdown.Total(), plain.Breakdown.Total()) &&
			ok(nd.Breakdown.Total(), pbp.Breakdown.Total())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
