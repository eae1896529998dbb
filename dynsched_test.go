package dynsched

import (
	"strings"
	"testing"
)

func smallTrace(t *testing.T, app string) *TraceRun {
	t.Helper()
	run, err := GenerateTrace(app, TraceOptions{Scale: ScaleSmall})
	if err != nil {
		t.Fatalf("GenerateTrace(%s): %v", app, err)
	}
	return run
}

func TestAppsList(t *testing.T) {
	apps := Apps()
	if len(apps) != 5 {
		t.Fatalf("Apps() = %v, want the paper's five", apps)
	}
	want := "mp3d lu pthor locus ocean"
	if got := strings.Join(apps, " "); got != want {
		t.Errorf("Apps() order = %q, want %q (paper order)", got, want)
	}
}

func TestGenerateTraceDefaults(t *testing.T) {
	run := smallTrace(t, "mp3d")
	if run.Trace.NumCPUs != 16 {
		t.Errorf("default NumCPUs = %d, want 16", run.Trace.NumCPUs)
	}
	if run.Trace.MissPenalty != 50 {
		t.Errorf("default MissPenalty = %d, want 50", run.Trace.MissPenalty)
	}
	if run.Trace.CPU != 1 {
		t.Errorf("default TraceCPU = %d, want 1", run.Trace.CPU)
	}
	if len(run.CacheStats) != 16 || len(run.CPUStats) != 16 {
		t.Errorf("per-CPU stats lengths = %d/%d, want 16", len(run.CacheStats), len(run.CPUStats))
	}
}

func TestGenerateTraceUnknownApp(t *testing.T) {
	if _, err := GenerateTrace("fft", TraceOptions{}); err == nil {
		t.Error("unknown application accepted")
	}
}

func TestRunAllArchitectures(t *testing.T) {
	run := smallTrace(t, "lu")
	base := RunProcessor(run.Trace, ProcessorConfig{Arch: ArchBase})
	if base.Breakdown.Total() == 0 {
		t.Fatal("BASE produced zero cycles")
	}
	for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
		for _, model := range []Model{SC, PC, WO, RC} {
			res, err := Run(run.Trace, ProcessorConfig{Arch: arch, Model: model, Window: 32})
			if err != nil {
				t.Fatalf("Run(%s, %v): %v", arch, model, err)
			}
			if res.Breakdown.Total() > base.Breakdown.Total() {
				t.Errorf("%s/%v total %d exceeds BASE %d", arch, model,
					res.Breakdown.Total(), base.Breakdown.Total())
			}
			if res.Instructions != uint64(run.Trace.Len()) {
				t.Errorf("%s/%v instructions = %d, want %d", arch, model,
					res.Instructions, run.Trace.Len())
			}
		}
	}
}

func TestRunUnknownArch(t *testing.T) {
	run := smallTrace(t, "lu")
	if _, err := Run(run.Trace, ProcessorConfig{Arch: "VLIW"}); err == nil {
		t.Error("unknown architecture accepted")
	}
}

// TestRunRejectsInvalidConfig pins that every architecture, BASE included,
// rejects the same out-of-range configuration.
func TestRunRejectsInvalidConfig(t *testing.T) {
	run := smallTrace(t, "lu")
	for _, arch := range []Arch{ArchBase, ArchSSBR, ArchSS, ArchDS} {
		_, err := Run(run.Trace, ProcessorConfig{Arch: arch, Window: -3, IssueWidth: -1})
		if err == nil || !strings.Contains(err.Error(), "window -3 out of range") {
			t.Errorf("%s: err = %v, want the window rejected", arch, err)
		}
	}
}

// TestRunBaseMetrics pins the metrics a BASE replay publishes through the
// facade: the aggregate counters and the cpi/mcpi gauges under the
// caller's prefix, and nothing else.
func TestRunBaseMetrics(t *testing.T) {
	run := smallTrace(t, "lu")
	reg := NewMetrics()
	res, err := Run(run.Trace, ProcessorConfig{Arch: ArchBase, Observe: Observe{Metrics: reg, MetricsPrefix: "cpu.lu.BASE."}})
	if err != nil {
		t.Fatal(err)
	}
	b, n := res.Breakdown, res.Instructions
	if n != uint64(run.Trace.Len()) || b.Total() == 0 {
		t.Fatalf("BASE replayed %d instructions in %d cycles", n, b.Total())
	}
	wantCounters := map[string]uint64{
		"cycles.total": b.Total(), "cycles.busy": b.Busy,
		"stall.sync": b.Sync, "stall.read": b.Read, "stall.write": b.Write,
		"stall.branch": b.Branch, "stall.other": b.Other,
		"instructions": n, "branch.mispredicts": 0, "prefetches": 0,
	}
	wantGauges := map[string]float64{
		"cpi":  float64(b.Total()) / float64(n),
		"mcpi": float64(b.Read+b.Write) / float64(n),
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != len(wantCounters) || len(snap.Gauges) != len(wantGauges) || len(snap.Histograms) != 0 {
		t.Errorf("BASE published %d counters, %d gauges, %d histograms; want %d, %d, 0:\n%+v",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms), len(wantCounters), len(wantGauges), snap)
	}
	for name, want := range wantCounters {
		if got, ok := snap.Counters["cpu.lu.BASE."+name]; !ok || got != want {
			t.Errorf("counter %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	for name, want := range wantGauges {
		if got, ok := snap.Gauges["cpu.lu.BASE."+name]; !ok || got != want {
			t.Errorf("gauge %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

func TestRunEmptyArchDefaultsToBase(t *testing.T) {
	run := smallTrace(t, "lu")
	a, err := Run(run.Trace, ProcessorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b := RunProcessor(run.Trace, ProcessorConfig{Arch: ArchBase})
	if a.Breakdown != b.Breakdown {
		t.Error("zero-value ProcessorConfig should behave as BASE")
	}
}

func TestPerfectBranchesKnob(t *testing.T) {
	run := smallTrace(t, "pthor") // worst branch behaviour
	btb, err := Run(run.Trace, ProcessorConfig{Arch: ArchDS, Model: RC, Window: 128})
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := Run(run.Trace, ProcessorConfig{Arch: ArchDS, Model: RC, Window: 128, PerfectBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	if perfect.Mispredicts != 0 {
		t.Errorf("perfect predictor mispredicted %d branches", perfect.Mispredicts)
	}
	if btb.Mispredicts == 0 {
		t.Error("BTB mispredicted nothing on PTHOR — implausible")
	}
	if perfect.Breakdown.Total() > btb.Breakdown.Total() {
		t.Errorf("perfect prediction slower (%d) than BTB (%d)",
			perfect.Breakdown.Total(), btb.Breakdown.Total())
	}
}

func TestCPIDecreasesWithWindow(t *testing.T) {
	run := smallTrace(t, "ocean")
	var prev float64 = 1e18
	for _, w := range []int{16, 64, 256} {
		res, err := Run(run.Trace, ProcessorConfig{Arch: ArchDS, Model: RC, Window: w})
		if err != nil {
			t.Fatal(err)
		}
		if cpi := res.CPI(); cpi > prev*1.02 {
			t.Errorf("CPI grew with window %d: %.3f > %.3f", w, cpi, prev)
		} else {
			prev = cpi
		}
	}
}

func TestExperimentFacade(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.Scale = ScaleSmall
	opts.Apps = []string{"lu"}
	e := NewExperiment(opts)
	rows, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].App != "lu" {
		t.Errorf("Table1 rows = %+v", rows)
	}
}

func TestTraceRunCacheStatsConsistency(t *testing.T) {
	run := smallTrace(t, "mp3d")
	// The traced CPU's cache stats must agree with the trace annotations.
	d := run.Trace.Data()
	cs := run.CacheStats[run.Trace.CPU]
	// The cache counters include lock/unlock and event traffic, so they are
	// an upper bound on the data-reference counts.
	if cs.ReadMisses < d.ReadMisses {
		t.Errorf("cache read misses %d < trace read misses %d", cs.ReadMisses, d.ReadMisses)
	}
	if cs.WriteMisses < d.WriteMisses {
		t.Errorf("cache write misses %d < trace write misses %d", cs.WriteMisses, d.WriteMisses)
	}
}
