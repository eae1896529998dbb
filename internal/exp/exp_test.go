package exp

import (
	"fmt"
	"strings"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/obs"
)

func smallExp(t *testing.T, appNames ...string) *Experiment {
	t.Helper()
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	if len(appNames) > 0 {
		opts.Apps = appNames
	}
	return New(opts)
}

func colByLabel(t *testing.T, cols []Column, label string) Column {
	t.Helper()
	for _, c := range cols {
		if c.Label == label {
			return c
		}
	}
	t.Fatalf("column %q not found in %v", label, labels(cols))
	return Column{}
}

func labels(cols []Column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Label
	}
	return out
}

func TestTracesAreCached(t *testing.T) {
	e := smallExp(t, "lu")
	r1, err := e.Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second Run did not return the cached trace")
	}
}

func TestTables(t *testing.T) {
	e := smallExp(t)
	t1, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != 5 {
		t.Fatalf("table 1 rows = %d, want 5", len(t1))
	}
	out := FormatTable1(t1)
	for _, app := range apps.Names() {
		if !strings.Contains(out, strings.ToUpper(app)) {
			t.Errorf("table 1 output missing %s:\n%s", app, out)
		}
	}
	t2, err := e.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatTable2(t2); !strings.Contains(s, "barriers") {
		t.Errorf("table 2 malformed:\n%s", s)
	}
	t3, err := e.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatTable3(t3); !strings.Contains(s, "Predicted") {
		t.Errorf("table 3 malformed:\n%s", s)
	}
}

// The central qualitative claims of Figure 3, per application.
func TestFigure3Trends(t *testing.T) {
	e := smallExp(t)
	all, err := e.Figure3All()
	if err != nil {
		t.Fatal(err)
	}
	for _, ac := range all {
		ac := ac
		t.Run(ac.App, func(t *testing.T) {
			base := colByLabel(t, ac.Cols, "BASE")

			// (i) "SC does not allow the read and write latency to be hidden
			// regardless of the processor architecture": dynamic scheduling
			// buys far less under SC than under RC (computation can overlap
			// the single outstanding miss, but misses serialize), and the
			// SC gain stays modest in absolute terms.
			scSSBR := colByLabel(t, ac.Cols, "SC-SSBR")
			scDS := colByLabel(t, ac.Cols, "SC-DS256")
			rcSSBRc := colByLabel(t, ac.Cols, "RC-SSBR")
			rcDS := colByLabel(t, ac.Cols, "RC-DS256")
			scGain := int64(scSSBR.Breakdown.Total()) - int64(scDS.Breakdown.Total())
			rcGain := int64(rcSSBRc.Breakdown.Total()) - int64(rcDS.Breakdown.Total())
			if scGain > rcGain {
				t.Errorf("DS gain under SC (%d cycles) exceeds gain under RC (%d cycles)", scGain, rcGain)
			}
			if float64(scDS.Breakdown.Total()) < 0.70*float64(scSSBR.Breakdown.Total()) {
				t.Errorf("SC-DS256 total %d far below SC-SSBR %d: SC should not benefit this much from DS",
					scDS.Breakdown.Total(), scSSBR.Breakdown.Total())
			}

			// (ii) RC fully hides write latency under static scheduling.
			rcSSBR := colByLabel(t, ac.Cols, "RC-SSBR")
			if w := float64(rcSSBR.Breakdown.Write) / float64(base.Breakdown.Total()); w > 0.05 {
				t.Errorf("RC-SSBR write stall is %.1f%% of BASE, want ~0", 100*w)
			}

			// (iii) RC+DS read stall shrinks as the window grows.
			prev := colByLabel(t, ac.Cols, "RC-DS16").Breakdown.Read
			for _, w := range []string{"RC-DS32", "RC-DS64", "RC-DS128", "RC-DS256"} {
				cur := colByLabel(t, ac.Cols, w).Breakdown.Read
				if float64(cur) > 1.1*float64(prev)+5 {
					t.Errorf("%s read stall %d exceeds smaller window's %d", w, cur, prev)
				}
				prev = cur
			}

			// (iv) RC-DS at the largest window beats every static RC config.
			ds256 := colByLabel(t, ac.Cols, "RC-DS256")
			if ds256.Breakdown.Total() > rcSSBR.Breakdown.Total() {
				t.Errorf("RC-DS256 total %d worse than RC-SSBR %d", ds256.Breakdown.Total(), rcSSBR.Breakdown.Total())
			}

			// (v) Everything is bounded by BASE.
			for _, c := range ac.Cols {
				if c.Breakdown.Total() > base.Breakdown.Total()*105/100 {
					t.Errorf("%s total %d exceeds BASE %d", c.Label, c.Breakdown.Total(), base.Breakdown.Total())
				}
			}

			// (vi) Busy time is invariant across 1-issue configurations.
			for _, c := range ac.Cols {
				if c.Breakdown.Busy != base.Breakdown.Busy {
					t.Errorf("%s busy %d != BASE busy %d", c.Label, c.Breakdown.Busy, base.Breakdown.Busy)
				}
			}
		})
	}
}

// "PC is in general successful in hiding the latency of writes" (§4.1.1)
// for the applications with balanced write traffic.
func TestPCHidesWritesForLU(t *testing.T) {
	e := smallExp(t, "lu")
	run, err := e.Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	cols, err := Figure3(run.Trace)
	if err != nil {
		t.Fatal(err)
	}
	base := colByLabel(t, cols, "BASE")
	pc := colByLabel(t, cols, "PC-SSBR")
	if base.Breakdown.Write == 0 {
		t.Skip("no write stall at this scale")
	}
	if frac := float64(pc.Breakdown.Write) / float64(base.Breakdown.Write); frac > 0.25 {
		t.Errorf("PC-SSBR retains %.0f%% of BASE write stall, want <25%%", 100*frac)
	}
}

// Figure 4 trends: perfect branch prediction never hurts; ignoring data
// dependences never hurts; at the largest window with both, read stall is
// near zero.
func TestFigure4Trends(t *testing.T) {
	e := smallExp(t)
	all, err := e.Figure4All()
	if err != nil {
		t.Fatal(err)
	}
	f3, err := e.Figure3All()
	if err != nil {
		t.Fatal(err)
	}
	for i, ac := range all {
		ac, f3c := ac, f3[i]
		t.Run(ac.App, func(t *testing.T) {
			for _, w := range Windows {
				pbp := colByLabel(t, ac.Cols, labelf("PBP-%d", w))
				btb := colByLabel(t, f3c.Cols, labelf("RC-DS%d", w))
				if float64(pbp.Breakdown.Total()) > 1.02*float64(btb.Breakdown.Total())+10 {
					t.Errorf("window %d: perfect BP total %d worse than BTB total %d",
						w, pbp.Breakdown.Total(), btb.Breakdown.Total())
				}
				nd := colByLabel(t, ac.Cols, labelf("PBP+ND-%d", w))
				if float64(nd.Breakdown.Total()) > 1.02*float64(pbp.Breakdown.Total())+10 {
					t.Errorf("window %d: ignoring deps total %d worse than with deps %d",
						w, nd.Breakdown.Total(), pbp.Breakdown.Total())
				}
			}
			nd256 := colByLabel(t, ac.Cols, "PBP+ND-256")
			base := colByLabel(t, ac.Cols, "BASE")
			if frac := float64(nd256.Breakdown.Read) / float64(base.Breakdown.Total()); frac > 0.06 {
				t.Errorf("PBP+ND-256 read stall is %.1f%% of BASE, want ~0 (asymptote is busy+sync)", 100*frac)
			}
		})
	}
}

func labelf(f string, args ...any) string { return fmt.Sprintf(f, args...) }

// The read-latency-hidden summary grows with window size and LU/OCEAN reach
// near-full hiding at window 64, as in §7.
func TestReadHiddenSummary(t *testing.T) {
	e := smallExp(t)
	avg, perApp, err := e.ReadHiddenSummary()
	if err != nil {
		t.Fatal(err)
	}
	if avg[16] >= avg[64] {
		t.Errorf("hidden fraction should grow with window: w16=%.2f w64=%.2f", avg[16], avg[64])
	}
	if avg[64] < 0.5 {
		t.Errorf("avg hidden at window 64 = %.2f, want a substantial fraction (paper: 0.81)", avg[64])
	}
	for _, app := range []string{"lu", "ocean"} {
		if perApp[app][64] < 0.75 {
			t.Errorf("%s hidden at window 64 = %.2f, want near-full (paper: ~1.0)", app, perApp[app][64])
		}
	}
	out := FormatSummary(avg, perApp)
	if !strings.Contains(out, "window") {
		t.Errorf("summary malformed:\n%s", out)
	}
}

// PTHOR's dependent miss chains delay read-miss issue far more than LU's
// independent misses (§4.1.3).
func TestDelayContrast(t *testing.T) {
	e := smallExp(t, "lu", "pthor")
	luRun, err := e.Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	ptRun, err := e.Run("pthor")
	if err != nil {
		t.Fatal(err)
	}
	luH, err := ReadMissDelays(luRun.Trace)
	if err != nil {
		t.Fatal(err)
	}
	ptH, err := ReadMissDelays(ptRun.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if ptH.FractionAbove(40) <= luH.FractionAbove(40) {
		t.Errorf("pthor delayed fraction %.2f should exceed lu's %.2f",
			ptH.FractionAbove(40), luH.FractionAbove(40))
	}
}

// The 100-cycle experiment: trends match §4.2 — the same shape, with the
// knee moved to larger windows.
func TestLatency100(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.MissPenalty = 100
	opts.Apps = []string{"lu"}
	e := New(opts)
	run, err := e.Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	if run.Trace.MissPenalty != 100 {
		t.Fatalf("trace generated with penalty %d", run.Trace.MissPenalty)
	}
	cols, err := WindowSweep(run.Trace, consistency.RC)
	if err != nil {
		t.Fatal(err)
	}
	w64 := colByLabel(t, cols, "RC-DS64")
	w128 := colByLabel(t, cols, "RC-DS128")
	// With 100-cycle latency, window 64 cannot fully hide reads; 128 helps.
	if w128.Breakdown.Read > w64.Breakdown.Read {
		t.Errorf("window 128 read stall %d exceeds window 64's %d at latency 100",
			w128.Breakdown.Read, w64.Breakdown.Read)
	}
}

// Multiple issue: 4-wide execution is faster in absolute cycles.
func TestIssue4(t *testing.T) {
	e := smallExp(t, "lu")
	i4, err := e.Issue4All()
	if err != nil {
		t.Fatal(err)
	}
	f3, err := e.Figure3All()
	if err != nil {
		t.Fatal(err)
	}
	w4 := colByLabel(t, i4[0].Cols, "RC-DS64")
	w1 := colByLabel(t, f3[0].Cols, "RC-DS64")
	if w4.Breakdown.Total() >= w1.Breakdown.Total() {
		t.Errorf("4-issue total %d not below 1-issue total %d", w4.Breakdown.Total(), w1.Breakdown.Total())
	}
}

func TestAblations(t *testing.T) {
	e := smallExp(t, "mp3d")
	sb, err := e.AblationStoreBuffer("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	if colByLabel(t, sb, "SB1").Breakdown.Total() < colByLabel(t, sb, "SB32").Breakdown.Total() {
		t.Error("deeper store buffer should not be slower")
	}
	ms, err := e.AblationMSHR("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	if colByLabel(t, ms, "MSHR1").Breakdown.Total() < colByLabel(t, ms, "MSHRinf").Breakdown.Total() {
		t.Error("more MSHRs should not be slower")
	}
	bt, err := e.AblationBTB("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	if len(bt) != 6 {
		t.Errorf("BTB ablation columns = %d, want 6", len(bt))
	}
}

func TestWOBetweenPCAndRC(t *testing.T) {
	e := smallExp(t, "ocean")
	wo, err := e.WOAll()
	if err != nil {
		t.Fatal(err)
	}
	f3, err := e.Figure3All()
	if err != nil {
		t.Fatal(err)
	}
	woDS := colByLabel(t, wo[0].Cols, "WO-DS256")
	rcDS := colByLabel(t, f3[0].Cols, "RC-DS256")
	// WO is stricter than RC, so it cannot be faster (small slack for
	// secondary scheduling effects).
	if float64(woDS.Breakdown.Total()) < 0.98*float64(rcDS.Breakdown.Total()) {
		t.Errorf("WO total %d clearly below RC total %d: hierarchy violated",
			woDS.Breakdown.Total(), rcDS.Breakdown.Total())
	}
}

// The SC-prefetch extension closes a large part of the SC→RC gap (the
// claim of reference [8], §6 of the paper).
func TestSCPrefetchClosesGap(t *testing.T) {
	e := smallExp(t, "mp3d")
	pf, err := e.SCPrefetchAll()
	if err != nil {
		t.Fatal(err)
	}
	f3, err := e.Figure3All()
	if err != nil {
		t.Fatal(err)
	}
	scPF := colByLabel(t, pf[0].Cols, "SC-DS256")
	sc := colByLabel(t, f3[0].Cols, "SC-DS256")
	rc := colByLabel(t, f3[0].Cols, "RC-DS256")
	if scPF.Breakdown.Total() >= sc.Breakdown.Total() {
		t.Errorf("SC+prefetch total %d not below plain SC %d", scPF.Breakdown.Total(), sc.Breakdown.Total())
	}
	if scPF.Breakdown.Total() < rc.Breakdown.Total() {
		t.Errorf("SC+prefetch total %d below RC %d — prefetch must not beat full relaxation", scPF.Breakdown.Total(), rc.Breakdown.Total())
	}
}

func TestMissDistanceReport(t *testing.T) {
	e := smallExp(t, "lu", "ocean")
	s, err := e.MissDistanceReport()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "LU") || !strings.Contains(s, "OCEAN") {
		t.Errorf("report missing apps:\n%s", s)
	}
	// LU's inner loops give it strongly clustered miss distances; just
	// validate the histograms carry data.
	run, err := e.Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	if run.Trace.ReadMissDistances().Total == 0 {
		t.Error("LU miss distance histogram empty")
	}
}

func TestMultipleContexts(t *testing.T) {
	e := smallExp(t, "lu")
	rows, err := e.MultipleContexts("lu", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (contexts 1,2,4,8)", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Result.Utilization < rows[i-1].Result.Utilization {
			t.Errorf("utilization fell from %d to %d contexts", rows[i-1].Contexts, rows[i].Contexts)
		}
	}
	out := FormatMC(rows)
	if !strings.Contains(out, "utilization") {
		t.Errorf("FormatMC output malformed:\n%s", out)
	}
}

func TestReschedAllReport(t *testing.T) {
	e := smallExp(t, "ocean")
	rows, err := e.ReschedAll()
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.SSRescheduled > r.SSOriginal {
		t.Errorf("conservative rescheduling made SS slower: %d vs %d", r.SSRescheduled, r.SSOriginal)
	}
	if r.SSAggressive > r.SSRescheduled {
		t.Errorf("aggressive scheduling slower than conservative: %d vs %d", r.SSAggressive, r.SSRescheduled)
	}
	if !strings.Contains(FormatResched(rows), "ocean") {
		t.Error("FormatResched missing app name")
	}
}

func TestCacheSizeAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	rows, err := AblationCacheSize("lu", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	// Miss rates must not increase with cache size.
	for i := 1; i < len(rows); i++ {
		if rows[i].ReadMissRate > rows[i-1].ReadMissRate+0.01 {
			t.Errorf("read miss rate grew with cache size: %v then %v", rows[i-1], rows[i])
		}
	}
	if !strings.Contains(FormatCacheGeom("lu", rows), "64KB") {
		t.Error("FormatCacheGeom missing sizes")
	}
}

func TestMachineSweep(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	rows, err := MachineSweep("ocean", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d, want >= 4 (32 CPUs may be skipped at small scale)", len(rows))
	}
	// Per-processor work shrinks as the machine grows.
	for i := 1; i < len(rows); i++ {
		if rows[i].BusyCycles >= rows[i-1].BusyCycles {
			t.Errorf("busy cycles did not shrink: %d CPUs %d, %d CPUs %d",
				rows[i-1].NumCPUs, rows[i-1].BusyCycles, rows[i].NumCPUs, rows[i].BusyCycles)
		}
	}
	if !strings.Contains(FormatMachines("ocean", rows), "OCEAN") {
		t.Error("FormatMachines missing app")
	}
}

func TestContentionLengthensMisses(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	rows, err := Contention("mp3d", opts)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].AvgMissLat != 50 {
		t.Errorf("unbounded avg miss latency = %v, want 50", rows[0].AvgMissLat)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].AvgMissLat <= rows[i-1].AvgMissLat {
			t.Errorf("avg miss latency did not grow with contention: %+v", rows)
		}
		if rows[i].BaseTotal <= rows[i-1].BaseTotal {
			t.Errorf("BASE total did not grow with contention: %+v", rows)
		}
	}
	if !strings.Contains(FormatContention("mp3d", rows), "inf bw") {
		t.Error("FormatContention missing unbounded row")
	}
}

// Cross-check: the BASE model's stall sections must equal the latency the
// trace carries (trace.LatencyBound), for every application — two
// independent code paths computing the same quantity.
func TestBaseMatchesLatencyBound(t *testing.T) {
	e := smallExp(t)
	for _, app := range e.Apps() {
		run, err := e.Run(app)
		if err != nil {
			t.Fatal(err)
		}
		base, err := cpu.Replay(cpu.ArchBase, cpu.TraceSource(run.Trace), cpu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rd, wr, sy := run.Trace.LatencyBound()
		if base.Breakdown.Read != rd || base.Breakdown.Write != wr || base.Breakdown.Sync != sy {
			t.Errorf("%s: BASE (r %d, w %d, s %d) != bound (r %d, w %d, s %d)",
				app, base.Breakdown.Read, base.Breakdown.Write, base.Breakdown.Sync, rd, wr, sy)
		}
		if base.Breakdown.Busy != uint64(run.Trace.Len()) {
			t.Errorf("%s: BASE busy %d != instructions %d", app, base.Breakdown.Busy, run.Trace.Len())
		}
	}
}

// The regenerating sweeps generate their settings concurrently, so the
// metrics snapshot must come from one of them regardless of which finishes
// last: the setting of the base options, which is the same generation
// every other experiment publishes for the application.
func TestContentionMetricsDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.NumCPUs = 4
	opts.Metrics = obs.NewRegistry()
	if _, err := New(opts).Run("mp3d"); err != nil {
		t.Fatal(err)
	}
	want := obs.SnapshotFNV(opts.Metrics.Snapshot())
	for _, sweep := range []struct {
		name string
		run  func(string, Options) error
	}{
		{"contention", func(app string, o Options) error { _, err := Contention(app, o); return err }},
		{"machines", func(app string, o Options) error { _, err := MachineSweep(app, o); return err }},
		{"cachegeom", func(app string, o Options) error { _, err := AblationCacheSize(app, o); return err }},
	} {
		t.Run(sweep.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				o := opts
				o.Workers = workers
				o.Metrics = obs.NewRegistry()
				if err := sweep.run("mp3d", o); err != nil {
					t.Fatal(err)
				}
				if got := obs.SnapshotFNV(o.Metrics.Snapshot()); got != want {
					t.Errorf("-j %d: metrics checksum %s, want the base generation's %s", workers, got, want)
				}
			}
		})
	}
}
