package cpu

// Edge-case robustness tests for all processor models: degenerate traces,
// minimal windows, and buffer-exhaustion paths.

import (
	"testing"

	"dynsched/internal/consistency"
	"dynsched/internal/trace"
)

func TestEmptyTrace(t *testing.T) {
	tr := &trace.Trace{App: "empty", MissPenalty: 50}
	if got := replayBase(tr).Breakdown.Total(); got != 0 {
		t.Errorf("BASE on empty trace = %d cycles", got)
	}
	for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
		res, err := replay(arch, tr, Config{Model: consistency.RC})
		if err != nil {
			t.Fatal(err)
		}
		if res.Breakdown.Total() != 0 {
			t.Errorf("empty trace produced %d cycles", res.Breakdown.Total())
		}
	}
}

func TestHaltOnlyTrace(t *testing.T) {
	tr := newTB().halt()
	for _, arch := range []Arch{ArchSSBR, ArchSS} {
		res, err := replay(arch, tr, Config{Model: consistency.SC})
		if err != nil {
			t.Fatal(err)
		}
		if res.Breakdown.Total() != 1 || res.Breakdown.Busy != 1 {
			t.Errorf("halt-only trace (static): %v", res.Breakdown)
		}
	}
	// The DS pipeline pays its decode→dispatch→retire fill (≤3 cycles).
	res, err := replay(ArchDS, tr, Config{Model: consistency.SC})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Busy != 1 || res.Breakdown.Total() > 3 {
		t.Errorf("halt-only trace (DS): %v", res.Breakdown)
	}
}

func TestDSWindowOne(t *testing.T) {
	// A window of 1 degenerates to fully serial execution — every
	// instruction decodes, executes, and retires alone.
	b := newTB()
	b.load(2, 1, 64, true)
	b.alu(3, 2, 2)
	b.load(4, 1, 128, true)
	tr := b.halt()
	res, err := replay(ArchDS, tr, cfg(consistency.RC, 1))
	if err != nil {
		t.Fatal(err)
	}
	base := replayBase(tr)
	// No overlap is possible; total within a few pipeline cycles of BASE.
	if res.Breakdown.Total() < base.Breakdown.Total() {
		t.Errorf("window 1 total %d below BASE %d: impossible overlap", res.Breakdown.Total(), base.Breakdown.Total())
	}
	if res.Breakdown.Total() > base.Breakdown.Total()+10 {
		t.Errorf("window 1 total %d far above BASE %d", res.Breakdown.Total(), base.Breakdown.Total())
	}
}

func TestSSReadBufferExhaustion(t *testing.T) {
	// More outstanding loads than the read buffer holds: the processor
	// stalls on buffer space even though no value is used.
	b := newTB()
	for i := 0; i < 40; i++ {
		b.load(uint8(2+(i%8)), 1, uint64(i)*64, true)
	}
	tr := b.halt()
	deep, err := replay(ArchSS, tr, Config{Model: consistency.RC, ReadBufDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := replay(ArchSS, tr, Config{Model: consistency.RC, ReadBufDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.Breakdown.Total() <= deep.Breakdown.Total() {
		t.Errorf("2-deep read buffer total %d not above 64-deep total %d",
			shallow.Breakdown.Total(), deep.Breakdown.Total())
	}
}

func TestSSBRWriteBufferDrainAtEnd(t *testing.T) {
	// A trace ending in write misses: execution time must include the
	// drain, charged to write stall.
	b := newTB()
	b.store(1, 2, 64, true)
	b.store(1, 2, 128, true)
	tr := b.halt()
	res, err := replay(ArchSSBR, tr, Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	// Two overlapped 50-cycle writes still take ~51+ cycles beyond the 3
	// instructions.
	if res.Breakdown.Total() < 50 {
		t.Errorf("final writes not drained: total = %d", res.Breakdown.Total())
	}
	if res.Breakdown.Write == 0 {
		t.Error("drain cycles not charged to write")
	}
}

func TestDSTraceEndingInStore(t *testing.T) {
	b := newTB()
	b.alu(1, 0, 0)
	b.store(1, 2, 64, true)
	tr := b.halt()
	res, err := replay(ArchDS, tr, cfg(consistency.RC, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Total() < 50 {
		t.Errorf("store-buffer drain missing: total = %d", res.Breakdown.Total())
	}
}

func TestAllModelsOnAllClassMix(t *testing.T) {
	// One of everything, through every model/arch pair: exercises each
	// opcode-class path without asserting exact timings.
	b := newTB()
	b.alu(1, 0, 0)
	b.load(2, 1, 64, true)
	b.store(1, 2, 128, false)
	b.branch(3)
	b.lock(256, 5, 50)
	b.load(4, 2, 192, false)
	b.unlock(256, 1)
	b.barrier(25, 50)
	b.alu(5, 4, 2)
	tr := b.halt()
	base := replayBase(tr)
	for _, m := range consistency.Models {
		// The static models ignore the window.
		for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
			res, err := replay(arch, tr, Config{Model: m, Window: 8})
			if err != nil {
				t.Fatalf("%v/%s: %v", m, arch, err)
			}
			if res.Breakdown.Total() > base.Breakdown.Total() {
				t.Errorf("%v/%s total %d exceeds BASE %d", m, arch, res.Breakdown.Total(), base.Breakdown.Total())
			}
			if res.Breakdown.Sync < 25 {
				t.Errorf("%v/%s sync %d below barrier wait 25", m, arch, res.Breakdown.Sync)
			}
		}
	}
}

func TestContendedTraceLatenciesAboveBase(t *testing.T) {
	// Traces generated under finite bandwidth carry latencies above the
	// penalty; the models must handle them.
	b := newTB()
	b.load(2, 1, 64, true)
	b.tr.Events[0].Latency = 180 // queued miss
	b.alu(3, 2, 2)
	tr := b.halt()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := replay(ArchDS, tr, cfg(consistency.RC, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Total() < 180 {
		t.Errorf("long-latency miss not honoured: total = %d", res.Breakdown.Total())
	}
}
