package tango

// Equivalence of the batched scheduler, which runs a processor's ALU and
// branch instructions in one turn, with the unbatched one, which sends every
// instruction through the ready queue: traces, statistics and timeline
// points must be identical.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/asm"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
	"dynsched/internal/vm"
)

// mixedProgram builds an SPMD program whose processors drift apart: ALU runs
// of random length, some longer than maxBatch, and loops whose trip counts
// depend on the processor id, between shared and private loads and stores,
// lock-protected updates, barriers, and an event processor 0 sets for the
// others at the end.
func mixedProgram(rng *rand.Rand) *asm.Program {
	b := asm.NewBuilder("mixed")
	shared, priv, lk, acc, v := b.Alloc(), b.Alloc(), b.Alloc(), b.Alloc(), b.Alloc()
	b.Li(shared, 0x10000)
	b.Li(lk, 0x8000)
	b.Shli(priv, asm.RegCPU, 12)
	b.Addi(priv, priv, 0x100000)
	b.Li(acc, 1)
	aluRun := func(n int) {
		for k := range n {
			if k%3 == 2 {
				b.Xor(acc, acc, asm.RegCPU)
			} else {
				b.Addi(acc, acc, int64(k))
			}
		}
	}
	b.ForI(0, int64(3+rng.IntN(6)), 1, func(i asm.Reg) {
		for range 6 {
			switch rng.IntN(8) {
			case 0, 1:
				n := rng.IntN(12)
				if rng.IntN(6) == 0 {
					n = maxBatch + rng.IntN(300)
				}
				aluRun(n)
			case 2: // (cpu+i)&7 trips of a two-instruction ALU loop
				t := b.Alloc()
				b.Add(t, asm.RegCPU, i)
				b.Andi(t, t, 7)
				top, end := b.NewLabel("spin"), b.NewLabel("spinend")
				b.Label(top)
				b.Beqz(t, end)
				b.Muli(acc, acc, 3)
				b.Addi(t, t, -1)
				b.J(top)
				b.Label(end)
				b.Free(t)
			case 3, 4: // shared word (cpu+i)&63: coherence misses
				t := b.Alloc()
				b.Add(t, asm.RegCPU, i)
				b.Andi(t, t, 63)
				b.Shli(t, t, 3)
				b.Add(t, t, shared)
				if rng.IntN(2) == 0 {
					b.Ld(v, t, 0)
					b.Add(acc, acc, v)
				} else {
					b.St(t, 0, acc)
				}
				b.Free(t)
			case 5:
				b.Ld(v, priv, int64(8*rng.IntN(64)))
				b.Add(acc, acc, v)
				b.St(priv, int64(8*rng.IntN(64)), acc)
			case 6:
				b.Lock(lk, 0)
				b.Ld(v, lk, 8)
				b.Addi(v, v, 1)
				b.St(lk, 8, v)
				b.Unlock(lk, 0)
			case 7:
				b.Barrier(int64(rng.IntN(2)))
			}
		}
	})
	b.If(asm.RegCPU, func() { b.WaitEv(1) }, func() {
		aluRun(rng.IntN(20))
		b.SetEv(1)
	})
	b.St(priv, 0, acc)
	b.Halt()
	return b.MustBuild()
}

// scheduled is what one run produces: the result, each recorded trace
// encoded, and the timeline samples (the deltas between the points).
type scheduled struct {
	res     *Result
	traces  [][]byte
	samples []obs.TimelineSample
}

// runScheduled runs progs with a timeline recording every 2^shift cycles,
// batched or through the ready queue one instruction at a time.
func runScheduled(t *testing.T, progs []*asm.Program, memInit func(*vm.PagedMem), cfg Config, shift uint, batched bool) scheduled {
	t.Helper()
	unbatched = !batched
	defer func() { unbatched = false }()
	cfg.Timeline = obs.NewTimeline(shift, 1<<12)
	res, err := Run(progs, memInit, cfg)
	if err != nil {
		t.Fatalf("batched=%v: %v", batched, err)
	}
	trs := res.Traces
	if !cfg.RecordAll {
		trs = []*trace.Trace{res.Trace}
	}
	out := scheduled{res: res, samples: cfg.Timeline.Samples()}
	for _, tr := range trs {
		if tr == nil {
			continue
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out.traces = append(out.traces, buf.Bytes())
	}
	return out
}

// checkBatchedMatches runs progs both ways and reports every difference.
func checkBatchedMatches(t *testing.T, progs []*asm.Program, memInit func(*vm.PagedMem), cfg Config, shift uint) {
	t.Helper()
	got := runScheduled(t, progs, memInit, cfg, shift, true)
	want := runScheduled(t, progs, memInit, cfg, shift, false)
	if got.res.Cycles != want.res.Cycles {
		t.Errorf("Cycles = %d batched, %d unbatched", got.res.Cycles, want.res.Cycles)
	}
	if !reflect.DeepEqual(got.res.CPUStats, want.res.CPUStats) {
		t.Errorf("CPUStats differ:\nbatched   %+v\nunbatched %+v", got.res.CPUStats, want.res.CPUStats)
	}
	if !reflect.DeepEqual(got.res.CacheStats, want.res.CacheStats) {
		t.Errorf("CacheStats differ:\nbatched   %+v\nunbatched %+v", got.res.CacheStats, want.res.CacheStats)
	}
	if len(got.traces) != len(want.traces) {
		t.Fatalf("%d traces batched, %d unbatched", len(got.traces), len(want.traces))
	}
	for i := range got.traces {
		if !bytes.Equal(got.traces[i], want.traces[i]) {
			t.Errorf("trace %d: %d bytes batched, %d unbatched, contents differ", i, len(got.traces[i]), len(want.traces[i]))
		}
	}
	if len(want.samples) < 2 {
		t.Errorf("timeline has %d samples; the run should span several boundaries", len(want.samples))
	}
	if !reflect.DeepEqual(got.samples, want.samples) {
		for i := range min(len(got.samples), len(want.samples)) {
			if !reflect.DeepEqual(got.samples[i], want.samples[i]) {
				t.Errorf("timeline sample %d:\nbatched   %+v\nunbatched %+v", i, got.samples[i], want.samples[i])
				break
			}
		}
		t.Errorf("timeline: %d samples batched, %d unbatched", len(got.samples), len(want.samples))
	}
}

// TestBatchedMatchesUnbatched is the property test of the batched
// scheduler over random programs, at every miss penalty, processor count,
// memory issue interval and recording mode, with a timeline attached.
func TestBatchedMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1992))
	for _, penalty := range []uint32{1, 50, 1000} {
		for _, n := range []int{1, 2, 5, 16, 65} {
			for _, interval := range []uint32{0, 3} {
				for _, all := range []bool{false, true} {
					prog := mixedProgram(rng)
					cfg := cfgN(n, rng.IntN(n+1)-1)
					cfg.Mem.MissPenalty = penalty
					cfg.MemIssueInterval = interval
					cfg.RecordAll = all
					shift := []uint{2, 4, 7}[rng.IntN(3)]
					name := fmt.Sprintf("lat%d/cpus%d/issue%d/all=%v/trace%d/shift%d", penalty, n, interval, all, cfg.TraceCPU, shift)
					t.Run(name, func(t *testing.T) {
						checkBatchedMatches(t, same(n, prog), nil, cfg, shift)
					})
				}
			}
		}
	}
}

// TestBatchedMatchesUnbatchedApps checks the applications themselves, at
// small scale, one random configuration each.
func TestBatchedMatchesUnbatchedApps(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 2))
	for _, name := range apps.ExtendedNames() {
		n := []int{2, 5, 16}[rng.IntN(3)]
		app, err := apps.Build(name, n, apps.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cfgN(n, rng.IntN(n))
		cfg.Mem.MissPenalty = []uint32{1, 50, 1000}[rng.IntN(3)]
		cfg.MemIssueInterval = uint32(rng.IntN(2) * 4)
		cfg.RecordAll = rng.IntN(2) == 0
		shift := []uint{6, 10}[rng.IntN(2)]
		t.Run(fmt.Sprintf("%s/cpus%d/lat%d/issue%d/all=%v", name, n, cfg.Mem.MissPenalty, cfg.MemIssueInterval, cfg.RecordAll), func(t *testing.T) {
			checkBatchedMatches(t, app.Progs, app.Init, cfg, shift)
		})
	}
}
