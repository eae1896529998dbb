package exp

// A sweep holds one decoded trace per busy worker: runMatrix holds each
// application's run from its generation until its last cell and then
// releases it, and a run that no sweep holds and that Run has not pinned
// keeps only its v3 bytes.

import (
	"fmt"
	"maps"
	"sync"
	"testing"
)

// eventWatch records, through testHookEvents, which runs hold decoded
// events, the most that ever did at once, and how many times each
// application's events appeared since the last reset.
type eventWatch struct {
	mu    sync.Mutex
	live  map[*AppRun]bool
	peak  int
	gains map[string]int
}

// watchEvents installs an eventWatch for the rest of the test.
func watchEvents(t *testing.T) *eventWatch {
	t.Helper()
	w := &eventWatch{live: make(map[*AppRun]bool), gains: make(map[string]int)}
	testHookEvents = func(r *AppRun, held bool) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if held {
			w.live[r] = true
			w.gains[r.App]++
			w.peak = max(w.peak, len(w.live))
		} else {
			delete(w.live, r)
		}
	}
	t.Cleanup(func() { testHookEvents = nil })
	return w
}

// reset clears the peak and the per-application counts; the runs that
// hold events still count towards the next peak.
func (w *eventWatch) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peak = len(w.live)
	clear(w.gains)
}

func (w *eventWatch) stats() (peak int, gains map[string]int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak, maps.Clone(w.gains)
}

// heldState reports whether app's run holds decoded events and v3 bytes.
func heldState(e *Experiment, app string) (events, bytes bool) {
	e.mu.Lock()
	run := e.runs[app].run
	e.mu.Unlock()
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.Trace != nil, run.raw != nil
}

// boundSweeps are the sweeps TestSweepDecodedTracesBounded runs in order,
// each rendered to every artifact it publishes.
var boundSweeps = []probeSweep{
	{"fig3", func(t *testing.T, e *Experiment) (string, error) {
		acs, err := e.Figure3All()
		return FormatAppColumns("fig3", acs) + mustJSON(t, acs), err
	}},
	{"fig4", func(t *testing.T, e *Experiment) (string, error) {
		acs, err := e.Figure4All()
		return FormatAppColumns("fig4", acs) + mustJSON(t, acs), err
	}},
	probeSweeps[0], // analyze
}

// TestSweepDecodedTracesBounded runs Figure3All, Figure4All and AnalyzeAll
// in sequence, with and without a store and at one and four workers. No
// more runs than workers (or applications) ever hold decoded events; each
// sweep decodes each application at most once; after each sweep every run
// holds its bytes and no events; a repeated sweep decodes again (unless
// its cells all hit) and publishes the same bytes; a run taken with Run
// keeps its Trace through later sweeps; and every report equals that of
// an uncached serial run.
func TestSweepDecodedTracesBounded(t *testing.T) {
	want := make([]string, len(boundSweeps))
	ref := New(probeOpts(nil, 1))
	for i, sw := range boundSweeps {
		got, err := sw.run(t, ref)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = got
	}

	for _, stored := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("store=%t/j%d", stored, workers), func(t *testing.T) {
				opts := probeOpts(nil, workers)
				if stored {
					opts.Cache = openStore(t, t.TempDir())
				}
				e := New(opts)
				w := watchEvents(t)
				bound := min(workers, len(probeApps))

				// sweep runs one of boundSweeps and checks its report, its
				// peak, its decodes (gains: each application's events
				// appeared exactly that often) and that it released every
				// run but the pinned one, which holds its events throughout.
				sweep := func(i, gains int, pinned string) {
					t.Helper()
					limit := bound
					if pinned != "" {
						limit++
					}
					w.reset()
					got, err := boundSweeps[i].run(t, e)
					if err != nil {
						t.Fatal(err)
					}
					if got != want[i] {
						t.Errorf("%s differs from the uncached serial run", boundSweeps[i].name)
					}
					peak, seen := w.stats()
					if peak > limit {
						t.Errorf("%s: %d runs held decoded events at once, want at most %d", boundSweeps[i].name, peak, limit)
					}
					for _, app := range probeApps {
						want := gains
						if app == pinned {
							want = 0
						}
						if seen[app] != want {
							t.Errorf("%s: %s's events appeared %d times, want %d", boundSweeps[i].name, app, seen[app], want)
						}
						events, bytes := heldState(e, app)
						if app != pinned && (events || !bytes) {
							t.Errorf("after %s: %s holds events %t, bytes %t; want bytes only", boundSweeps[i].name, app, events, bytes)
						}
					}
				}

				// The first sweep generates each trace; the next two decode
				// it again, their cells missing the store.
				for i := range boundSweeps {
					sweep(i, 1, "")
				}
				// A repeated sweep decodes again, unless its cells all hit.
				again := 1
				if stored {
					again = 0
				}
				sweep(0, again, "")

				// A run taken with Run is pinned: later sweeps neither drop
				// its events nor decode it again.
				run, err := e.Run(probeApps[0])
				if err != nil {
					t.Fatal(err)
				}
				tr := run.Trace
				sweep(2, again, probeApps[0])
				if run.Trace != tr {
					t.Errorf("a sweep replaced or dropped the Trace of a run taken with Run")
				}
				if events, _ := heldState(e, probeApps[0]); !events {
					t.Errorf("the pinned run holds no events after a sweep")
				}
			})
		}
	}
}
