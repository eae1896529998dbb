package tango

// Tests for the simulator's failure-containment controls: the cycle budget,
// cooperative cancellation, and the machine-state dump on MachineError.

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynsched/internal/asm"
	"dynsched/internal/obs"
)

// spinner builds an infinite loop — a livelocked program that makes
// instruction progress but never halts.
func spinner() *asm.Program {
	b := asm.NewBuilder("spin")
	b.Label("top")
	b.J("top")
	return b.MustBuild()
}

func TestMaxCyclesKillsLivelock(t *testing.T) {
	cfg := cfgN(1, -1)
	cfg.MaxCycles = 5000
	_, err := Run(same(1, spinner()), nil, cfg)
	if err == nil {
		t.Fatal("livelocked program not killed by the cycle budget")
	}
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MachineError", err)
	}
	if me.Reason != "cycle budget" {
		t.Errorf("reason = %q, want cycle budget", me.Reason)
	}
	if me.State == "" || !strings.Contains(me.State, "cpu0") {
		t.Errorf("machine-state dump missing: %q", me.State)
	}
	if !me.Permanent() {
		t.Error("MachineError must be permanent (not retried)")
	}
}

func TestMaxCyclesQuietOnHealthyRun(t *testing.T) {
	cfg := cfgN(2, 0)
	cfg.MaxCycles = 1 << 30
	if _, err := Run(same(2, lockCounter(0x1000, 0x2000, 10)), nil, cfg); err != nil {
		t.Fatalf("healthy run killed by generous cycle budget: %v", err)
	}
}

// TestMaxCyclesPublishesNothing: a generation stopped by the cycle budget
// publishes no metrics, the write-buffer backlog histogram included, while
// the same run left to finish publishes it with every store observed.
func TestMaxCyclesPublishesNothing(t *testing.T) {
	progs := same(2, lockCounter(0x1000, 0x2000, 200))
	cfg := cfgN(2, 0)
	cfg.Metrics = obs.NewRegistry()
	cfg.MaxCycles = 2000
	_, err := Run(progs, nil, cfg)
	var me *MachineError
	if !errors.As(err, &me) || me.Reason != "cycle budget" {
		t.Fatalf("err = %v, want a cycle budget *MachineError", err)
	}
	if names := cfg.Metrics.Names(); len(names) != 0 {
		t.Errorf("stopped generation published %v", names)
	}

	cfg.Metrics, cfg.MaxCycles = obs.NewRegistry(), 0
	if _, err := Run(progs, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if h, ok := cfg.Metrics.Snapshot().Histograms["tango.writebuf.backlog_cycles"]; !ok || h.Total != 2*200 {
		t.Errorf("finished generation backlog histogram = %+v, %v; want one sample per store", h, ok)
	}
}

func TestDeadlockCarriesMachineState(t *testing.T) {
	hb := asm.NewBuilder("hog")
	lk := hb.Alloc()
	hb.Li(lk, 0x1000)
	hb.Lock(lk, 0)
	hb.Halt()
	wb := asm.NewBuilder("waiter")
	lk2 := wb.Alloc()
	wb.Li(lk2, 0x1000)
	wb.Lock(lk2, 0)
	wb.Halt()
	_, err := Run([]*asm.Program{hb.MustBuild(), wb.MustBuild()}, nil, cfgN(2, -1))
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MachineError", err)
	}
	if me.Reason != "deadlock" {
		t.Errorf("reason = %q, want deadlock", me.Reason)
	}
	if !strings.Contains(me.State, "blocked") || !strings.Contains(me.State, "lock-waiters=1") {
		t.Errorf("deadlock dump not diagnosable: %q", me.State)
	}
	// The deadlock fires after the last step, the hog's halt: Cycle is the
	// time of that step, the latest halted@N in the dump.
	var lastHalt uint64
	for _, m := range regexp.MustCompile(`halted@(\d+)`).FindAllStringSubmatch(me.State, -1) {
		n, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		lastHalt = max(lastHalt, n)
	}
	if me.Cycle == 0 || me.Cycle != lastHalt {
		t.Errorf("deadlock Cycle = %d, want the latest halt time %d (> 0); state: %s", me.Cycle, lastHalt, me.State)
	}
}

func TestRunawayCarriesMachineState(t *testing.T) {
	cfg := cfgN(1, -1)
	cfg.MaxInstrs = 1000
	_, err := Run(same(1, spinner()), nil, cfg)
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MachineError", err)
	}
	if me.Reason != "runaway" || me.State == "" {
		t.Errorf("runaway error incomplete: %+v", me)
	}
}

func TestSimulationCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cfgN(1, -1)
	cfg.Ctx = ctx
	_, err := Run(same(1, spinner()), nil, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled simulation returned %v, want context.Canceled", err)
	}

	// A live context leaves a normal run untouched.
	cfg = cfgN(2, 0)
	cfg.Ctx = context.Background()
	if _, err := Run(same(2, lockCounter(0x1000, 0x2000, 10)), nil, cfg); err != nil {
		t.Fatalf("background ctx broke the simulation: %v", err)
	}
}

// TestMachineErrorSameBatched checks that the cycle-budget and runaway
// errors fire at the same cycle with the same machine-state dump whether
// or not local instructions run in batches: a batch never runs past the
// cycle at which either check would fire.
func TestMachineErrorSameBatched(t *testing.T) {
	mixed := mixedProgram(rand.New(rand.NewPCG(7, 7)))
	spinMix := []*asm.Program{lockCounter(0x1000, 0x2000, 40), spinner(), mixed, lockCounter(0x1000, 0x2000, 40), mixed}
	for _, tc := range []struct {
		name      string
		progs     []*asm.Program
		maxCycles uint64
		maxInstrs uint64
		reason    string
	}{
		{"spinner/cycle budget", same(1, spinner()), 5000, 0, "cycle budget"},
		{"mix/cycle budget", spinMix, 777, 0, "cycle budget"},
		{"spinner/runaway", same(1, spinner()), 0, 1000, "runaway"},
		{"mix/runaway", spinMix, 0, 1000, "runaway"},
		{"mix/runaway before cycle budget", spinMix, 1500, 1000, "runaway"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(batched bool) *MachineError {
				unbatched = !batched
				defer func() { unbatched = false }()
				cfg := cfgN(len(tc.progs), 0)
				cfg.MaxCycles, cfg.MaxInstrs = tc.maxCycles, tc.maxInstrs
				_, err := Run(tc.progs, nil, cfg)
				var me *MachineError
				if !errors.As(err, &me) {
					t.Fatalf("batched=%v: err = %v, want *MachineError", batched, err)
				}
				return me
			}
			got, want := run(true), run(false)
			if want.Reason != tc.reason {
				t.Errorf("reason = %q, want %q", want.Reason, tc.reason)
			}
			if got.Reason != want.Reason || got.Cycle != want.Cycle || got.State != want.State {
				t.Errorf("batched error differs:\nbatched   %s at %d: %s\nunbatched %s at %d: %s",
					got.Reason, got.Cycle, got.State, want.Reason, want.Cycle, want.State)
			}
		})
	}
}

// TestSimulationCtxCancelMidRun cancels a live context while processors
// spin in an endless ALU loop, which runs entirely in batches: the batch
// cap returns each processor to the scheduler loop, which polls the
// context, so Run must come back promptly.
func TestSimulationCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := obs.NewProgress(io.Discard, time.Hour)
	cfg := cfgN(2, -1)
	cfg.Ctx = ctx
	cfg.Progress = p.Lane("spin")
	done := make(chan error, 1)
	go func() {
		_, err := Run(same(2, spinner()), nil, cfg)
		done <- err
	}()
	// Cancel once the run has published progress, so it is mid-run.
	for deadline := time.Now().Add(10 * time.Second); p.Status().Instrs == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("simulation published no progress within 10 s")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled simulation returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simulation did not return within 10 s of cancellation")
	}

	// The context is polled when the step count crosses a PublishEvery
	// boundary, which a step count that grows by whole batches seldom lands
	// on: a canceled run stops at the first crossing, well before the
	// runaway check.
	cfg = cfgN(1, -1)
	cfg.Ctx = ctx
	cfg.MaxInstrs = 2*obs.PublishEvery + 100
	if _, err := Run(same(1, spinner()), nil, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled spinner returned %v, want context.Canceled", err)
	}
}

// TestProgressLaneTotals checks that the progress lane ends holding the
// run's summed instructions and its cycle count, batched or not. The run
// crosses several PublishEvery boundaries.
func TestProgressLaneTotals(t *testing.T) {
	for _, batched := range []bool{true, false} {
		unbatched = !batched
		p := obs.NewProgress(io.Discard, time.Hour)
		cfg := cfgN(4, -1)
		cfg.Progress = p.Lane("lockctr")
		res, err := Run(same(4, lockCounter(0x1000, 0x2000, 3000)), nil, cfg)
		unbatched = false
		if err != nil {
			t.Fatal(err)
		}
		var instrs uint64
		for _, st := range res.CPUStats {
			instrs += st.Instructions
		}
		if instrs < 4*obs.PublishEvery {
			t.Fatalf("run of %d instructions crosses too few publish boundaries", instrs)
		}
		lane := p.Status().Lanes[0]
		if lane.Instrs != instrs || lane.Cycles != res.Cycles {
			t.Errorf("batched=%v: lane holds %d instructions, %d cycles; run executed %d in %d cycles",
				batched, lane.Instrs, lane.Cycles, instrs, res.Cycles)
		}
	}
}
