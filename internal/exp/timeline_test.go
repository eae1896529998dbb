package exp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/critpath"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

// timelineBothArms replays one configuration under both time-skip arms with
// an interval sampler and critpath collector attached and requires the
// derived sample series — including the per-interval fine-cause deltas — to
// be byte-identical.
func timelineBothArms(t *testing.T, tr *trace.Trace, label string, arch cpu.Arch, cfg cpu.Config) {
	t.Helper()
	var series [2][]obs.TimelineSample
	for i, noskip := range []bool{false, true} {
		c := cfg
		c.NoTimeSkip = noskip
		tl := obs.NewTimeline(6, 64) // 64-cycle intervals force many decimations
		tl.CauseNames = timelineCauseNames()
		c.Timeline = tl
		c.CritPath = critpath.NewCollector()
		if _, err := cpu.Replay(arch, cpu.TraceSource(tr), c); err != nil {
			t.Fatalf("%s noskip=%v: %v", label, noskip, err)
		}
		series[i] = tl.Samples()
	}
	if !reflect.DeepEqual(series[0], series[1]) {
		t.Errorf("%s: timeline differs between skip and noskip (%d vs %d samples)",
			label, len(series[0]), len(series[1]))
		return
	}
	a, err := json.Marshal(series[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(series[1])
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("%s: timeline JSON differs between skip and noskip", label)
	}
}

// TestSkipEquivalenceTimeline extends the time-skip equivalence gate to the
// interval sampler: a time-skipping replay that interpolates boundary
// snapshots inside bulk-charged quiet stretches must emit the exact series
// of the cycle-stepped replay, for every processor model.
func TestSkipEquivalenceTimeline(t *testing.T) {
	models := []consistency.Model{consistency.SC, consistency.RC}
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d", "lu"}
	e := New(opts)
	for _, app := range opts.Apps {
		run, err := e.Run(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range models {
			for _, c := range skipEquivCells() {
				label := fmt.Sprintf("%s/%s/%s", app, model, c.label)
				cfg := cpu.Config{Model: model, Window: c.window}
				if c.extra != nil {
					c.extra(&cfg)
				}
				timelineBothArms(t, run.Trace, label, c.arch, cfg)
			}
		}
	}
}

// TestWorkerCountDeterminismTimeline pins the full timeline step — text,
// JSON, and CSV — to be byte-identical between serial and parallel sweeps.
func TestWorkerCountDeterminismTimeline(t *testing.T) {
	render := func(workers int) (string, string, string) {
		t.Helper()
		opts := DefaultOptions()
		opts.Scale = apps.ScaleSmall
		opts.Apps = []string{"mp3d", "lu"}
		opts.Workers = workers
		rep, err := New(opts).TimelineAll()
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Format(), string(js), rep.CSV()
	}
	txt1, js1, csv1 := render(1)
	txt4, js4, csv4 := render(4)
	if txt1 != txt4 {
		t.Errorf("text report differs between -j 1 and -j 4:\n%s\n---\n%s", txt1, txt4)
	}
	if js1 != js4 {
		t.Error("JSON report differs between -j 1 and -j 4")
	}
	if csv1 != csv4 {
		t.Error("CSV differs between -j 1 and -j 4")
	}
	for _, want := range []string{"== mp3d ==", "RC-DS256", "dominant", "ipc "} {
		if !strings.Contains(txt1, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestTimelineConservationAcrossModels checks the sweep-level invariant on
// real traces: for every replay cell the per-interval breakdown deltas sum
// to the interval length, the intervals tile [0, TotalCycles) exactly, and
// the phases partition the sampled span.
func TestTimelineConservationAcrossModels(t *testing.T) {
	rep, err := smallExp(t, "lu").TimelineAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range rep.Apps {
		for _, c := range app.Cells {
			if c.Failed {
				t.Fatalf("%s %s: unexpected failure: %s", app.App, c.Label, c.Error)
			}
			if len(c.Samples) == 0 {
				t.Fatalf("%s %s: no samples", app.App, c.Label)
			}
			var instr uint64
			prevEnd := uint64(0)
			for i, s := range c.Samples {
				if s.Start != prevEnd {
					t.Errorf("%s %s sample %d: starts at %d, want %d", app.App, c.Label, i, s.Start, prevEnd)
				}
				prevEnd = s.End
				sum := s.Busy + s.Sync + s.Read + s.Write + s.Branch + s.Other
				if uint64(sum) != s.End-s.Start {
					t.Errorf("%s %s sample %d: breakdown sums to %d over [%d,%d)",
						app.App, c.Label, i, sum, s.Start, s.End)
				}
				instr += s.Instructions
			}
			if prevEnd != c.TotalCycles {
				t.Errorf("%s %s: samples end at %d, run at %d", app.App, c.Label, prevEnd, c.TotalCycles)
			}
			if instr != c.Instructions {
				t.Errorf("%s %s: sampled instructions %d, run retired %d", app.App, c.Label, instr, c.Instructions)
			}
			if len(c.Phases) == 0 {
				t.Fatalf("%s %s: no phases", app.App, c.Label)
			}
			if first, last := c.Phases[0], c.Phases[len(c.Phases)-1]; first.StartCycle != 0 || last.EndCycle != c.TotalCycles {
				t.Errorf("%s %s: phases span [%d,%d), want [0,%d)",
					app.App, c.Label, first.StartCycle, last.EndCycle, c.TotalCycles)
			}
			for i := 1; i < len(c.Phases); i++ {
				if c.Phases[i].StartCycle != c.Phases[i-1].EndCycle {
					t.Errorf("%s %s: phase %d starts at %d, previous ends at %d",
						app.App, c.Label, i+1, c.Phases[i].StartCycle, c.Phases[i-1].EndCycle)
				}
			}
		}
	}
}

// TestDetectPhases pins the change-point detector on synthetic series.
func TestDetectPhases(t *testing.T) {
	mk := func(i int, busy, read int64, instr uint64) obs.TimelineSample {
		return obs.TimelineSample{
			Start: uint64(i) * 100, End: uint64(i+1) * 100,
			Instructions: instr, Busy: busy, Read: read,
		}
	}
	if got := DetectPhases(nil); got != nil {
		t.Errorf("empty series: %v", got)
	}
	// A stable mix is one phase.
	var flat []obs.TimelineSample
	for i := 0; i < 10; i++ {
		flat = append(flat, mk(i, 90, 10, 90))
	}
	p := DetectPhases(flat)
	if len(p) != 1 || p[0].StartCycle != 0 || p[0].EndCycle != 1000 || p[0].DominantStall != "read" {
		t.Fatalf("flat series: %+v", p)
	}
	// An abrupt move of half the cycles from busy to read splits the run.
	var shifted []obs.TimelineSample
	for i := 0; i < 4; i++ {
		shifted = append(shifted, mk(i, 100, 0, 100))
	}
	for i := 4; i < 8; i++ {
		shifted = append(shifted, mk(i, 20, 80, 20))
	}
	p = DetectPhases(shifted)
	if len(p) != 2 {
		t.Fatalf("shifted series: %d phases, want 2: %+v", len(p), p)
	}
	if p[0].EndCycle != 400 || p[1].StartCycle != 400 {
		t.Errorf("boundary at %d/%d, want 400", p[0].EndCycle, p[1].StartCycle)
	}
	if p[0].DominantStall != "busy" || p[1].DominantStall != "read" {
		t.Errorf("dominants %q/%q, want busy/read", p[0].DominantStall, p[1].DominantStall)
	}
	if p[0].IPC != 1.0 || p[1].MCPI != float64(4*80)/float64(4*20) {
		t.Errorf("phase rates: IPC %g, MCPI %g", p[0].IPC, p[1].MCPI)
	}
}

// TestServeTimelineMidRunReplay scrapes /timeline and /bottlenecks while a
// real DS replay streams samples into a hub-registered timeline — the race
// detector proves live scraping is safe against the simulation writer.
func TestServeTimelineMidRunReplay(t *testing.T) {
	run, err := smallExp(t, "lu").Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewTimelineHub()
	reg := obs.NewRegistry()
	srv, err := obs.StartServer("127.0.0.1:0", obs.ServerState{
		Registry: reg, Timelines: hub, Version: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		tl := obs.NewTimeline(4, 32) // tiny interval: constant recording
		tl.CauseNames = timelineCauseNames()
		hub.Register("lu RC-DS64", tl)
		cfg := cpu.Config{Model: consistency.RC, Window: 64,
			CritPath: critpath.NewCollector(), Timeline: tl}
		_, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(run.Trace), cfg)
		done <- err
	}()

	scrape := func(path string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/timeline" {
			var series []obs.TimelineSeries
			if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
	}
	running := true
	for running {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			scrape("/timeline")
			scrape("/bottlenecks")
		}
	}
	// After the run the snapshot holds the complete series.
	snap := hub.Snapshot()
	if len(snap) != 1 || snap[0].Cell != "lu RC-DS64" || len(snap[0].Samples) == 0 {
		t.Fatalf("final snapshot: %+v", snap)
	}
}
