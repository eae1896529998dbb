package cpu

import (
	"fmt"
	"testing"

	"dynsched/internal/consistency"
	"dynsched/internal/critpath"
	"dynsched/internal/isa"
	"dynsched/internal/trace"
)

// takenBranch emits a taken conditional branch, which the cold paper BTB
// mispredicts (it predicts not-taken for unseen PCs).
func takenBranch(b *tb, reg uint8) *tb {
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpBnez, Src1: reg, Imm: 9999}, Taken: true})
}

// critpathTraces builds a family of synthetic traces that exercise every
// attribution cause: read-miss chains, store bursts, mispredicted branches,
// lock contention, and consistency-ordered accesses.
func critpathTraces() map[string]*trace.Trace {
	mix := newTB()
	for i := 0; i < 40; i++ {
		mix.load(1, 0, uint64(0x1000+i*64), true)
		mix.alu(2, 1, 1) // load-use chain
		mix.alu(3, 3, 3) // independent work
		mix.store(0, 2, uint64(0x8000+i*64), true)
		if i%4 == 0 {
			takenBranch(mix, 3)
		} else {
			mix.branch(3)
		}
		if i%8 == 0 {
			mix.lock(0x9000, 20, 50)
			mix.unlock(0x9000, 50)
		}
	}

	stores := newTB()
	for i := 0; i < 60; i++ {
		stores.store(0, 3, uint64(0x4000+i*64), true)
	}

	reads := newTB()
	for i := 0; i < 30; i++ {
		reads.load(uint8(1+i%4), 0, uint64(0x2000+i*64), true)
		reads.alu(5, uint8(1+i%4), 5)
	}

	// Mostly ALU work punctuated by taken branches: every branch PC is
	// fresh, so the cold BTB mispredicts them all and the refill bubbles
	// are the only stall source.
	branchy := newTB()
	for i := 0; i < 40; i++ {
		branchy.alu(1, 1, 1)
		branchy.alu(2, 1, 2)
		takenBranch(branchy, 2)
	}

	// Pairs of store misses ahead of each load miss: the stores retire
	// into the store buffer and hold the MSHRs, so with MSHRs=2 the head
	// load is ready and permitted (under RC) but structurally blocked.
	mshr := newTB()
	for i := 0; i < 20; i++ {
		mshr.store(0, 3, uint64(0x4000+i*128), true)
		mshr.store(0, 3, uint64(0x4040+i*128), true)
		mshr.load(1, 0, uint64(0x2000+i*64), true)
		mshr.alu(2, 1, 1)
	}

	return map[string]*trace.Trace{
		"mix":     mix.halt(),
		"stores":  stores.halt(),
		"reads":   reads.halt(),
		"branchy": branchy.halt(),
		"mshr":    mshr.halt(),
	}
}

// runWithCollector replays tr through arch with a fresh collector attached.
func runWithCollector(t *testing.T, tr *trace.Trace, arch Arch, cfg Config) (Result, critpath.Attribution) {
	t.Helper()
	cp := critpath.NewCollector()
	cfg.CritPath = cp
	res, err := replay(arch, tr, cfg)
	if err != nil {
		t.Fatalf("%s: %v", arch, err)
	}
	return res, cp.Attribution()
}

// TestCritPathConservation is the tentpole invariant: for every model,
// consistency model, and window, the attribution buckets sum exactly to
// Breakdown.Total(), the busy bucket equals Breakdown.Busy, and the edge
// counts sum to the retired instruction count. Attaching a collector must
// not perturb the simulation result.
func TestCritPathConservation(t *testing.T) {
	type arch struct {
		name Arch
		cfg  Config
	}
	archs := []arch{
		{"BASE", Config{}},
		{"SSBR", Config{}},
		{"SS", Config{}},
		{"DS", Config{Window: 16}},
		{"DS", Config{Window: 64}},
		{"DS", Config{Window: 256}},
		{"DS", Config{Window: 64, MSHRs: 2}},
		{"DS", Config{Window: 64, StoreBufDepth: 2}},
		{"DS", Config{Window: 64, IssueWidth: 4}}, // exercises credit pops
		{"DS", Config{Window: 64, Prefetch: true, MSHRs: 4}},
		{"DS", Config{Window: 64, SpeculativeLoads: true}},
	}
	for trName, tr := range critpathTraces() {
		for _, m := range []consistency.Model{consistency.SC, consistency.PC, consistency.RC} {
			for _, a := range archs {
				name := fmt.Sprintf("%s/%s/%s-W%d", trName, m, a.name, a.cfg.Window)
				t.Run(name, func(t *testing.T) {
					cfg := a.cfg
					cfg.Model = m
					res, attr := runWithCollector(t, tr, a.name, cfg)

					if got, want := attr.Sum(), res.Breakdown.Total(); got != want {
						t.Errorf("attribution sum = %d, want Breakdown.Total() = %d", got, want)
					}
					if attr.Total != res.Breakdown.Total() {
						t.Errorf("attr.Total = %d, want %d", attr.Total, res.Breakdown.Total())
					}
					if attr.Cycles[critpath.Busy] != res.Breakdown.Busy {
						t.Errorf("attr busy = %d, want Breakdown.Busy = %d",
							attr.Cycles[critpath.Busy], res.Breakdown.Busy)
					}
					if got, want := attr.EdgeSum(), res.Instructions; got != want {
						t.Errorf("edge sum = %d, want instruction count %d", got, want)
					}

					// The collector is observational: the result with the hook
					// must equal the result without it.
					bare := cfg
					bare.CritPath = nil
					res2, err := replay(a.name, tr, bare)
					if err != nil {
						t.Fatal(err)
					}
					if res.Breakdown != res2.Breakdown {
						t.Errorf("collector perturbed the breakdown:\nwith    %v\nwithout %v",
							res.Breakdown, res2.Breakdown)
					}
				})
			}
		}
	}
}

// TestCritPathSkipEquivalence pins the attribution to the same determinism
// discipline as the Breakdown: the event-driven time-skip path must produce
// byte-identical fine-cause buckets and edges to cycle stepping.
func TestCritPathSkipEquivalence(t *testing.T) {
	for trName, tr := range critpathTraces() {
		for _, m := range []consistency.Model{consistency.SC, consistency.RC} {
			for _, a := range []struct {
				name Arch
				cfg  Config
			}{
				{"SSBR", Config{}},
				{"SS", Config{}},
				{"DS", Config{Window: 64}},
				{"DS", Config{Window: 64, MSHRs: 2}},
				{"DS", Config{Window: 64, IssueWidth: 4}}, // burst-credit pops
			} {
				name := fmt.Sprintf("%s/%s/%s-W%d", trName, m, a.name, a.cfg.Window)
				if a.cfg.IssueWidth > 1 {
					name += fmt.Sprintf("w%d", a.cfg.IssueWidth)
				}
				t.Run(name, func(t *testing.T) {
					cfg := a.cfg
					cfg.Model = m
					_, step := runWithCollector(t, tr, a.name, func() Config {
						c := cfg
						c.NoTimeSkip = true
						return c
					}())
					_, skip := runWithCollector(t, tr, a.name, cfg)
					if step != skip {
						t.Errorf("time-skip attribution diverges:\nstep %v\nskip %v", step, skip)
					}
				})
			}
		}
	}
}

// TestCritPathCauseSemantics spot-checks that the headline causes fire on
// the traces built to trigger them.
func TestCritPathCauseSemantics(t *testing.T) {
	traces := critpathTraces()

	// A cold BTB mispredicts every taken branch of the branchy trace: DS
	// must attribute branch-refill cycles.
	res, attr := runWithCollector(t, traces["branchy"], "DS", Config{Model: consistency.RC, Window: 64})
	if res.Mispredicts == 0 {
		t.Fatal("branchy trace produced no mispredicts; the trace no longer exercises branch refill")
	}
	if attr.Cycles[critpath.BranchRefill] == 0 {
		t.Error("DS on mispredicting trace attributed no branch-refill cycles")
	}

	res, attr = runWithCollector(t, traces["mix"], "DS", Config{Model: consistency.RC, Window: 64})
	if attr.Cycles[critpath.ReadLat] == 0 {
		t.Error("DS on read-miss trace attributed no read-latency cycles")
	}
	if attr.Cycles[critpath.SyncWait] == 0 {
		t.Error("DS on lock trace attributed no sync-wait cycles")
	}

	// Store misses occupy both MSHRs while the head load is ready and
	// permitted under RC: the structural MSHR bound must appear.
	_, attr = runWithCollector(t, traces["mshr"], "DS", Config{Model: consistency.RC, Window: 64, MSHRs: 2})
	if attr.Cycles[critpath.MSHRFull] == 0 {
		t.Error("MSHR-limited DS attributed no mshr-full cycles")
	}

	// A 2-deep store buffer against a store burst: buffer-full stalls.
	_, attr = runWithCollector(t, traces["stores"], "DS", Config{Model: consistency.RC, Window: 64, StoreBufDepth: 2})
	if attr.Cycles[critpath.BufferFull] == 0 {
		t.Error("store-buffer-limited DS attributed no buffer-full cycles")
	}

	// Under SC a load may not issue past the older incomplete store misses:
	// consistency-ordering cycles must appear in the static SS model.
	scTB := newTB()
	for i := 0; i < 10; i++ {
		scTB.store(0, 3, uint64(0x4000+i*64), true)
		scTB.load(1, 0, uint64(0x100), false)
		scTB.alu(2, 1, 1)
	}
	_, attr = runWithCollector(t, scTB.halt(), "SS", Config{Model: consistency.SC})
	if attr.Cycles[critpath.Consistency] == 0 {
		t.Error("SC SS replay attributed no consistency-ordering cycles")
	}

	// BASE attribution is exact per construction: spot-check the buckets
	// match the breakdown one to one.
	res, attr = runWithCollector(t, traces["mix"], "BASE", Config{})
	if attr.Cycles[critpath.ReadLat] != res.Breakdown.Read ||
		attr.Cycles[critpath.WriteLat] != res.Breakdown.Write ||
		attr.Cycles[critpath.SyncWait] != res.Breakdown.Sync {
		t.Errorf("BASE fine buckets diverge from breakdown: %v vs %v", attr.Cycles, res.Breakdown)
	}
}
