package exp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dynsched/internal/apps"
	"dynsched/internal/cache"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/obs"
)

// TestMetricsMatchBreakdown runs one application through BASE and DS with a
// metrics registry attached and asserts that the published counters are
// exactly the Breakdown totals the experiment reports print — the property
// that makes a -metrics-out snapshot checkable against the figures.
func TestMetricsMatchBreakdown(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{
		NumCPUs: 4, Scale: apps.ScaleSmall, TraceCPU: 1,
		Apps: []string{"mp3d"}, Metrics: reg,
	})
	run, err := e.Run("mp3d")
	if err != nil {
		t.Fatal(err)
	}

	base, err := cpu.Replay(cpu.ArchBase, cpu.TraceSource(run.Trace), cpu.Config{
		Metrics: reg, MetricsPrefix: "cpu.BASE.",
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(run.Trace), cpu.Config{
		Model: consistency.RC, Window: 64,
		Metrics: reg, MetricsPrefix: "cpu.RC-DS64.",
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		prefix string
		b      cpu.Breakdown
	}{
		{"cpu.BASE.", base.Breakdown},
		{"cpu.RC-DS64.", ds.Breakdown},
	} {
		checks := map[string]uint64{
			"cycles.total": c.b.Total(), "cycles.busy": c.b.Busy,
			"stall.sync": c.b.Sync, "stall.read": c.b.Read,
			"stall.write": c.b.Write, "stall.branch": c.b.Branch,
			"stall.other": c.b.Other,
		}
		for name, want := range checks {
			if got := reg.Counter(c.prefix + name).Value(); got != want {
				t.Errorf("%s%s = %d, want %d", c.prefix, name, got, want)
			}
		}
	}
	if ds.Breakdown.Read >= base.Breakdown.Read {
		t.Errorf("DS read stall %d not below BASE %d — replay looks wrong",
			ds.Breakdown.Read, base.Breakdown.Read)
	}

	// The trace-generation side must have published machine totals that are
	// consistent with the returned statistics.
	var instrs uint64
	for i, st := range run.CPUs {
		name := fmt.Sprintf("tango.mp3d.cpu%02d.instructions", i)
		if got := reg.Counter(name).Value(); got != st.Instructions {
			t.Errorf("%s = %d, want %d", name, got, st.Instructions)
		}
		instrs += st.Instructions
	}
	if got := reg.Counter("tango.mp3d.machine.instructions").Value(); got != instrs {
		t.Errorf("machine.instructions = %d, want %d", got, instrs)
	}
	if reg.Counter("tango.mp3d.machine.cycles").Value() == 0 {
		t.Error("machine.cycles not published")
	}
	if reg.Gauge("tango.mp3d.machine.cache.miss_rate").Value() <= 0 {
		t.Error("cache miss rate not published")
	}
	// Lock handoffs and barriers make every processor transfer sync lines.
	for i := range run.CPUs {
		name := fmt.Sprintf("tango.mp3d.cpu%02d.sync.transfer_cycles", i)
		if reg.Counter(name).Value() == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
}

// TestRecordColumns checks the figure-column publication used by
// hidelat -metrics-out.
func TestRecordColumns(t *testing.T) {
	e := New(Options{NumCPUs: 4, Scale: apps.ScaleSmall, TraceCPU: 1, Apps: []string{"lu"}})
	run, err := e.Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	cols, err := Figure3(run.Trace)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RecordColumns(reg, "fig3", "lu", cols)
	for _, c := range cols {
		pre := "fig.fig3.lu." + c.Label + "."
		if got := reg.Counter(pre + "cycles.total").Value(); got != c.Breakdown.Total() {
			t.Errorf("%scycles.total = %d, want %d", pre, got, c.Breakdown.Total())
		}
		if got := reg.Gauge(pre + "normalized_pct").Value(); got != c.Normalized {
			t.Errorf("%snormalized_pct = %v, want %v", pre, got, c.Normalized)
		}
		if c.Instructions == 0 {
			t.Errorf("%s: column has no instruction count", c.Label)
			continue
		}
		if got := reg.Counter(pre + "instructions").Value(); got != c.Instructions {
			t.Errorf("%sinstructions = %d, want %d", pre, got, c.Instructions)
		}
		wantMCPI := float64(c.Breakdown.Read+c.Breakdown.Write) / float64(c.Instructions)
		if got := reg.Gauge(pre + "mcpi").Value(); got != wantMCPI {
			t.Errorf("%smcpi = %v, want %v", pre, got, wantMCPI)
		}
	}
	// A nil registry must be a no-op, not a panic.
	RecordColumns(nil, "fig3", "lu", cols)
}

// TestJobBoardTracksHarnessWork runs a small figure through the harness with
// a job board attached and checks that every unit of work — the trace
// generations and the per-app replay cells — appears on the board and ends
// in the done state (what the live /jobs endpoint serves). A second run
// against the result cache the first one filled must show every job as
// cached instead.
func TestJobBoardTracksHarnessWork(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	board := obs.NewJobBoard()
	appNames := []string{"lu", "mp3d"}
	opts := Options{
		NumCPUs: 4, Scale: apps.ScaleSmall, TraceCPU: 1,
		Apps: appNames, Workers: 4, Board: board, Cache: store,
	}
	acs, err := New(opts).Figure3All()
	if err != nil {
		t.Fatal(err)
	}

	st := board.Status()
	if st.Queued != 0 || st.Running != 0 || st.Failed != 0 {
		t.Errorf("board not drained: %+v", st)
	}
	nCells := len(acs[0].Cols)
	// One generation job per app plus the full apps × cells matrix.
	if want := len(appNames) * (1 + nCells); st.Done != want {
		t.Errorf("done jobs = %d, want %d", st.Done, want)
	}
	labels := make(map[string]bool, len(st.Jobs))
	for _, j := range st.Jobs {
		if j.State != obs.JobDone {
			t.Errorf("job %q state = %s, want done", j.Label, j.State)
		}
		labels[j.Label] = true
	}
	for _, want := range []string{"gen lu", "gen mp3d", "lu BASE", "mp3d RC-DS64"} {
		if !labels[want] {
			t.Errorf("board has no job labelled %q; labels: %v", want, labels)
		}
	}

	opts.Board = obs.NewJobBoard()
	if _, err := New(opts).Figure3All(); err != nil {
		t.Fatal(err)
	}
	if st := opts.Board.Status(); st.Cached != len(appNames)*(1+nCells) || st.Done != 0 {
		t.Errorf("warm run: cached/done = %d/%d, want every one of %d jobs cached", st.Cached, st.Done, len(appNames)*(1+nCells))
	}
}

// TestProgressLanesPerApp checks that concurrent trace generations publish
// through per-app lanes, not a single clobbered label.
func TestProgressLanesPerApp(t *testing.T) {
	var buf syncBuffer
	pr := obs.NewProgress(&buf, time.Hour)
	pr.Start()
	e := New(Options{
		NumCPUs: 4, Scale: apps.ScaleSmall, TraceCPU: 1,
		Apps: []string{"lu", "mp3d"}, Workers: 2, Progress: pr,
	})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	pr.Stop()
	out := buf.String()
	for _, want := range []string{"[lu] done", "[mp3d] done"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	st := pr.Status()
	if st.Instrs == 0 || st.Cycles == 0 {
		t.Errorf("lanes did not fold into the aggregate: %+v", st)
	}
}

// syncBuffer is a strings.Builder safe for the ticker goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestPipeTracerCoversReplay checks that a DS replay records one pipeline
// event per retired instruction and that retire order matches program order.
func TestPipeTracerCoversReplay(t *testing.T) {
	e := New(Options{NumCPUs: 4, Scale: apps.ScaleSmall, TraceCPU: 1, Apps: []string{"mp3d"}})
	run, err := e.Run("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	p := obs.NewPipeTracer(0)
	res, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(run.Trace), cpu.Config{Model: consistency.RC, Window: 64, Pipe: p})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(p.Len()) != res.Instructions {
		t.Fatalf("recorded %d pipeline events for %d instructions", p.Len(), res.Instructions)
	}
	recs := p.Records()
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("records[%d].Seq = %d; retire order broken", i, r.Seq)
		}
		if r.RetiredAt < r.DecodedAt || r.DoneAt > r.RetiredAt {
			t.Fatalf("seq %d has inconsistent stage cycles: %+v", r.Seq, r)
		}
	}
}
