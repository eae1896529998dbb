package tango

// Tests for the simulator's failure-containment controls: the cycle budget,
// cooperative cancellation, and the machine-state dump on MachineError.

import (
	"context"
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dynsched/internal/asm"
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
