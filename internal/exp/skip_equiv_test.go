package exp

// TestSkipEquivalence is the property test behind the event-driven time-skip
// optimization in internal/cpu: for every processor model, consistency
// model, window size, and miss penalty in the grid below, a replay with time
// skipping enabled (the default) must produce a Result byte-identical to the
// pure cycle-stepped replay (NoTimeSkip), including every stall-breakdown
// category, the occupancy average, the read-miss delay histogram, and the
// full observability snapshot (counters + histograms) that feeds the run
// ledger's determinism checksum. CI runs this test as a standalone gate.

import (
	"fmt"
	"reflect"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

// skipEquivCells is the configuration grid replayed under both arms. BASE
// has no time-skip path (its cost model is already event-free) but is kept
// in the grid so all four processor models are pinned by the same property.
func skipEquivCells() []struct {
	label  string
	arch   cpu.Arch
	window int
	extra  func(*cpu.Config)
} {
	cells := []struct {
		label  string
		arch   cpu.Arch
		window int
		extra  func(*cpu.Config)
	}{
		{label: "BASE", arch: "BASE"},
		{label: "SSBR", arch: "SSBR"},
		{label: "SS", arch: "SS"},
		{label: "DS16", arch: "DS", window: 16},
		{label: "DS64", arch: "DS", window: 64},
		// Prefetching with bounded MSHRs exercises the prefetch-decay skip
		// candidate, the subtlest of the jump targets.
		{label: "DS64pf", arch: "DS", window: 64,
			extra: func(c *cpu.Config) { c.Prefetch = true; c.MSHRs = 4 }},
		// Four-wide issue retires in bursts, so the burst-retirement credit
		// pops stall cycles that a time-skip stretch charged in bulk.
		{label: "DS64w4", arch: "DS", window: 64,
			extra: func(c *cpu.Config) { c.IssueWidth = 4 }},
	}
	return cells
}

func replayBothArms(t *testing.T, tr *trace.Trace, label string, arch cpu.Arch, cfg cpu.Config) {
	t.Helper()
	type arm struct {
		res  cpu.Result
		fnv  string
		name string
	}
	arms := make([]arm, 2)
	for i, noskip := range []bool{false, true} {
		reg := obs.NewRegistry()
		c := cfg
		c.NoTimeSkip = noskip
		c.Metrics = reg
		c.MetricsPrefix = "equiv."
		res, err := cpu.Replay(arch, cpu.TraceSource(tr), c)
		if err != nil {
			t.Fatalf("%s noskip=%v: %v", label, noskip, err)
		}
		arms[i] = arm{res: res, fnv: obs.SnapshotFNV(reg.Snapshot()), name: fmt.Sprintf("noskip=%v", noskip)}
	}
	if !reflect.DeepEqual(arms[0].res, arms[1].res) {
		t.Errorf("%s: Result differs between skip and noskip:\n skip:   %+v\n noskip: %+v",
			label, arms[0].res, arms[1].res)
	}
	if arms[0].fnv != arms[1].fnv {
		t.Errorf("%s: metrics snapshot FNV differs: skip %s, noskip %s",
			label, arms[0].fnv, arms[1].fnv)
	}
}

func TestSkipEquivalence(t *testing.T) {
	models := []consistency.Model{consistency.SC, consistency.PC, consistency.WO, consistency.RC}
	for _, penalty := range []uint32{50, 200} {
		opts := DefaultOptions()
		opts.Scale = apps.ScaleSmall
		opts.Apps = []string{"mp3d", "ocean"}
		opts.MissPenalty = penalty
		e := New(opts)
		for _, app := range opts.Apps {
			run, err := e.Run(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range models {
				for _, c := range skipEquivCells() {
					label := fmt.Sprintf("lat%d/%s/%s/%s", penalty, app, model, c.label)
					cfg := cpu.Config{Model: model, Window: c.window}
					if c.extra != nil {
						c.extra(&cfg)
					}
					replayBothArms(t, run.Trace, label, c.arch, cfg)
				}
			}
		}
	}
}
