package exp

// Tests for the scheduler's failure containment: deterministic lowest-index
// error selection (byte-identical failures at any worker count), graceful
// degradation to partial results, panic isolation, retry of transient
// faults, and cooperative cancellation. The fault-injection harness drives
// the failure paths deterministically; run with -race in CI.

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dynsched/internal/apps"
	"dynsched/internal/faultinject"
)

// TestRunJobsLowestIndexError pins the determinism fix: index 7 fails
// instantly, index 3 fails only after a delay, so completion order favours
// 7 — but the caller must always see index 3's error, exactly as serial
// execution would.
func TestRunJobsLowestIndexError(t *testing.T) {
	errSlow := errors.New("slow failure at 3")
	errFast := errors.New("fast failure at 7")
	for _, workers := range []int{1, 2, 4, 8} {
		err := runJobs(20, workers, func(i int) error {
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return errSlow
			case 7:
				return errFast
			}
			return nil
		})
		if !errors.Is(err, errSlow) {
			t.Fatalf("workers=%d: err = %v, want the lowest-index error %v", workers, err, errSlow)
		}
	}
}

// Every index below the returned failure must have actually run — the
// lowest-index guarantee is about matching serial semantics, not just
// picking a smaller number.
func TestRunJobsRunsEverythingBelowFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{2, 8} {
		const n, failAt = 64, 40
		ran := make([]bool, n)
		var mu sync.Mutex
		err := runJobs(n, workers, func(i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == failAt {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		for i := 0; i < failAt; i++ {
			if !ran[i] {
				t.Fatalf("workers=%d: index %d below the failure never ran", workers, i)
			}
		}
	}
}

func TestAttemptRetriesTransientThenSucceeds(t *testing.T) {
	o := &Options{Retries: 2, RetryBackoff: time.Millisecond}
	calls := 0
	cerr := o.attempt("flaky", 0, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if cerr != nil || calls != 3 {
		t.Fatalf("cerr = %v, calls = %d; want success on third attempt", cerr, calls)
	}
}

func TestAttemptCapturesPanicWithStack(t *testing.T) {
	o := &Options{Retries: 1, RetryBackoff: time.Millisecond}
	cerr := o.attempt("boom", 4, func() error { panic("cell exploded") })
	if cerr == nil {
		t.Fatal("panicking cell reported success")
	}
	if cerr.Stack == nil || !strings.Contains(string(cerr.Stack), "goroutine") {
		t.Errorf("panic stack not captured: %q", cerr.Stack)
	}
	if cerr.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (panics are retried)", cerr.Attempts)
	}
	if cerr.Index != 4 || cerr.Label != "boom" {
		t.Errorf("identity lost: %+v", cerr)
	}
	if !strings.Contains(cerr.Error(), "panicked") || !strings.Contains(cerr.Error(), "cell exploded") {
		t.Errorf("undiagnosable error text: %v", cerr)
	}
}

func TestAttemptDoesNotRetryPermanentErrors(t *testing.T) {
	o := &Options{Retries: 5, RetryBackoff: time.Millisecond}
	calls := 0
	cerr := o.attempt("dead", 0, func() error {
		calls++
		return &permanentError{errors.New("watchdog fired")}
	})
	if cerr == nil || calls != 1 {
		t.Fatalf("cerr = %v, calls = %d; permanent errors must fail on the first attempt", cerr, calls)
	}
}

func TestAttemptStopsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := &Options{Retries: 10, RetryBackoff: time.Hour, Ctx: ctx}
	calls := 0
	cerr := o.attempt("canceled", 0, func() error { calls++; return errors.New("transient") })
	if cerr == nil || calls != 1 {
		t.Fatalf("cerr = %v, calls = %d; cancellation must stop the retry loop", cerr, calls)
	}
}

// faultSweep is one sweep front-end under fault injection: run drives it on
// a fresh harness and flattens the outcome into the rendered report plus
// each app's per-cell failed flags. infix is the sweep's fault-site and
// label infix between the application and the cell label.
type faultSweep struct {
	name  string
	infix string
	run   func(e *Experiment) (text string, failed [][]bool, err error)
}

var faultSweeps = []faultSweep{
	{"fig3", "", func(e *Experiment) (string, [][]bool, error) {
		acs, err := e.Figure3All()
		var failed [][]bool
		for _, ac := range acs {
			row := make([]bool, len(ac.Cols))
			for i, c := range ac.Cols {
				row[i] = c.Failed || c.Breakdown.Total() == 0
			}
			failed = append(failed, row)
		}
		return FormatAppColumns("fig3", acs) + ColumnsCSV(acs), failed, err
	}},
	{"analyze", "analyze ", func(e *Experiment) (string, [][]bool, error) {
		rep, err := e.AnalyzeAll()
		if rep == nil {
			return "", nil, err
		}
		var failed [][]bool
		for _, app := range rep.Apps {
			row := make([]bool, len(app.Cells))
			for i, c := range app.Cells {
				row[i] = c.Failed || c.Attr.Total == 0
			}
			failed = append(failed, row)
		}
		return rep.Format(), failed, err
	}},
	{"timeline", "timeline ", func(e *Experiment) (string, [][]bool, error) {
		rep, err := e.TimelineAll()
		if rep == nil {
			return "", nil, err
		}
		var failed [][]bool
		for _, app := range rep.Apps {
			row := make([]bool, len(app.Cells))
			for i, c := range app.Cells {
				row[i] = c.Failed || c.TotalCycles == 0
			}
			failed = append(failed, row)
		}
		return rep.Format() + rep.CSV(), failed, err
	}},
}

// checkFailedCells asserts that exactly the cells flagged in want failed.
func checkFailedCells(t *testing.T, sweep string, workers int, apps []string, got [][]bool, want func(a, c int) bool) {
	t.Helper()
	if len(got) != len(apps) {
		t.Fatalf("%s workers=%d: %d apps in the result, want %d", sweep, workers, len(got), len(apps))
	}
	for a, row := range got {
		for c, failed := range row {
			if failed != want(a, c) {
				t.Errorf("%s workers=%d: %s cell %d failed=%v, want %v", sweep, workers, apps[a], c, failed, want(a, c))
			}
		}
	}
}

// TestPanickingCellDegradesGracefully is the headline fault-injection check:
// one RC-DS64 cell panics on every attempt, the sweep still finishes,
// returns every other cell, marks the failed one, and produces the exact
// same partial output at any worker count — for the figure sweep and both
// probe sweeps.
func TestPanickingCellDegradesGracefully(t *testing.T) {
	for _, sw := range faultSweeps {
		t.Run(sw.name, func(t *testing.T) {
			site := "mp3d " + sw.infix + "RC-DS64"
			render := func(workers int) (string, string) {
				opts := DefaultOptions()
				opts.Scale = apps.ScaleSmall
				opts.Apps = []string{"mp3d"}
				opts.Workers = workers
				opts.Retries = 1
				opts.RetryBackoff = time.Millisecond
				opts.Faults = faultinject.New()
				opts.Faults.Arm("cell."+site, faultinject.Fault{Kind: faultinject.KindPanic, Times: 99})
				text, failed, err := sw.run(New(opts))
				var pe *PartialError
				if !errors.As(err, &pe) {
					t.Fatalf("workers=%d: err = %v, want *PartialError", workers, err)
				}
				if len(pe.Cells) != 1 || pe.Cells[0].Label != site {
					t.Fatalf("workers=%d: wrong failure set: %v", workers, pe.FailedLabels())
				}
				ce := pe.Cells[0]
				if ce.Attempts != 2 || ce.Stack == nil {
					t.Errorf("workers=%d: retry/stack bookkeeping off: attempts=%d stack=%v",
						workers, ce.Attempts, ce.Stack != nil)
				}
				want := -1
				for c, failed := range failed[0] {
					if failed {
						want = c
					}
				}
				if ce.Index != want {
					t.Errorf("workers=%d: failure index %d, want the failed cell's slot %d", workers, ce.Index, want)
				}
				checkFailedCells(t, sw.name, workers, opts.Apps, failed, func(a, c int) bool { return c == ce.Index })
				if !strings.Contains(text, "FAILED") {
					t.Errorf("workers=%d: failed cell not marked in the report:\n%s", workers, text)
				}
				return text, pe.Error()
			}
			serialText, serialErr := render(1)
			parText, parErr := render(8)
			if serialText != parText {
				t.Errorf("partial output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialText, parText)
			}
			if serialErr != parErr {
				t.Errorf("partial error differs between worker counts:\n%s\nvs\n%s", serialErr, parErr)
			}
		})
	}
}

// A transient injected fault plus one retry must leave no trace in the
// results: the sweep succeeds completely.
func TestRetryRecoversTransientCellFault(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d"}
	opts.Workers = 4
	opts.Retries = 1
	opts.RetryBackoff = time.Millisecond
	opts.Faults = faultinject.New()
	opts.Faults.Arm("cell.mp3d BASE", faultinject.Fault{Kind: faultinject.KindError})
	e := New(opts)
	acs, err := e.Figure3All()
	if err != nil {
		t.Fatalf("one transient fault with a retry budget broke the sweep: %v", err)
	}
	if opts.Faults.Fired("cell.mp3d BASE") != 1 {
		t.Fatalf("fault fired %d times, want 1", opts.Faults.Fired("cell.mp3d BASE"))
	}
	for _, c := range acs[0].Cols {
		if c.Failed || c.Breakdown.Total() == 0 {
			t.Fatalf("column %q incomplete after recovery", c.Label)
		}
	}
}

// A failed trace generation fails that application's cells and nothing
// else, for the figure sweep and both probe sweeps, with the same partial
// output at any worker count. The second input also fails one lu cell, so
// the merge must report a generation failure and a cell failure together,
// in index order.
func TestGenerationFailureIsolatedPerApp(t *testing.T) {
	for _, sw := range faultSweeps {
		for _, cellSite := range []string{"", "lu " + sw.infix + "RC-DS64"} {
			name := sw.name
			if cellSite != "" {
				name += "+cell"
			}
			t.Run(name, func(t *testing.T) {
				render := func(workers int) (string, string) {
					opts := DefaultOptions()
					opts.Scale = apps.ScaleSmall
					opts.Apps = []string{"mp3d", "lu"}
					opts.Workers = workers
					opts.Faults = faultinject.New()
					opts.Faults.Arm("gen.mp3d", faultinject.Fault{Kind: faultinject.KindError})
					if cellSite != "" {
						opts.Faults.Arm("cell."+cellSite, faultinject.Fault{Kind: faultinject.KindError})
					}
					text, failed, err := sw.run(New(opts))
					var pe *PartialError
					if !errors.As(err, &pe) {
						t.Fatalf("workers=%d: err = %v, want *PartialError", workers, err)
					}
					wantLabels := []string{"mp3d (trace generation)"}
					if cellSite != "" {
						wantLabels = append(wantLabels, cellSite)
					}
					if !slices.Equal(pe.FailedLabels(), wantLabels) || pe.Cells[0].Index != 0 {
						t.Fatalf("workers=%d: wrong failure set: %v (index %d)", workers, pe.FailedLabels(), pe.Cells[0].Index)
					}
					slot := -1 // lu's failed cell
					if cellSite != "" {
						slot = slices.Index(failed[1], true)
						if want := len(failed[1]) + slot; slot < 0 || pe.Cells[1].Index != want {
							t.Errorf("workers=%d: cell failure index %d, want lu's failed slot %d", workers, pe.Cells[1].Index, want)
						}
					}
					checkFailedCells(t, sw.name, workers, opts.Apps, failed, func(a, c int) bool { return a == 0 || c == slot })
					return text, pe.Error()
				}
				serialText, serialErr := render(1)
				parText, parErr := render(8)
				if serialText != parText {
					t.Errorf("partial output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialText, parText)
				}
				if serialErr != parErr {
					t.Errorf("partial error differs between worker counts:\n%s\nvs\n%s", serialErr, parErr)
				}
				if sw.name == "fig3" && (strings.Contains(serialText, "mp3d,") || !strings.Contains(serialText, "lu,")) {
					t.Errorf("CSV must omit failed cells and keep healthy ones:\n%s", serialText)
				}
			})
		}
	}
}

// Cancellation aborts the sweep outright — no partial results, a context
// error — and a pre-canceled harness never starts simulating.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d"}
	opts.Ctx = ctx
	e := New(opts)
	acs, err := e.Figure3All()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if acs != nil {
		t.Fatalf("canceled sweep returned results: %v", acs)
	}
}

// A panic during trace generation must not poison the single-flight cache:
// later callers get the captured error, not (nil, nil).
func TestGenerationPanicDoesNotPoisonCache(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d"}
	opts.Faults = faultinject.New()
	opts.Faults.Arm("gen.mp3d", faultinject.Fault{Kind: faultinject.KindPanic, Times: 99})
	e := New(opts)
	for i := 0; i < 2; i++ {
		run, err := e.Run("mp3d")
		if run != nil || err == nil {
			t.Fatalf("call %d: run=%v err=%v, want (nil, error)", i, run, err)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("call %d: panic origin lost: %v", i, err)
		}
		if !isPermanent(err) {
			t.Fatalf("call %d: cached generation failure must be permanent", i)
		}
	}
}

// TestRetryScheduleJitterAndCap pins the retry-backoff contract: the waits
// double from RetryBackoff, never exceed RetryMaxBackoff, carry a
// deterministic per-(label, attempt) jitter in the upper half of the
// exponential delay, and are observable through the injectable sleeper — a
// second identical run records the identical schedule.
func TestRetryScheduleJitterAndCap(t *testing.T) {
	const label = "mp3d RC-DS64"
	base, max := 10*time.Millisecond, 80*time.Millisecond
	record := func(label string) []time.Duration {
		var sleeps []time.Duration
		o := &Options{
			Retries: 6, RetryBackoff: base, RetryMaxBackoff: max,
			Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
		}
		ce := o.attempt(label, 0, func() error { return errors.New("transient") })
		if ce == nil || ce.Attempts != 7 {
			t.Fatalf("attempt result = %+v, want terminal failure after 7 attempts", ce)
		}
		return sleeps
	}
	sleeps := record(label)
	if len(sleeps) != 6 {
		t.Fatalf("recorded %d sleeps, want 6", len(sleeps))
	}
	for i, d := range sleeps {
		a := i + 1
		if want := retryDelay(label, a, base, max); d != want {
			t.Errorf("attempt %d slept %v, want retryDelay = %v", a, d, want)
		}
		exp := base << i
		if exp > max {
			exp = max
		}
		if d <= exp/2 || d > exp {
			t.Errorf("attempt %d slept %v, want within (%v, %v]", a, d, exp/2, exp)
		}
	}
	// The capped tail still spreads: attempts 4-6 all hit the 80ms cap, but
	// their jittered waits must not be identical (lockstep retries are the
	// failure mode the jitter exists to break).
	if sleeps[3] == sleeps[4] && sleeps[4] == sleeps[5] {
		t.Errorf("capped retries slept in lockstep: %v", sleeps[3:])
	}
	// Reproducible: the schedule is a pure function of the label.
	again := record(label)
	for i := range sleeps {
		if sleeps[i] != again[i] {
			t.Fatalf("retry schedule not deterministic: %v vs %v", sleeps, again)
		}
	}
	// Decorrelated: a different cell label yields a different schedule.
	other := record("lu SC-SS")
	same := true
	for i := range sleeps {
		if sleeps[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Errorf("labels %q and %q share a retry schedule: %v", label, "lu SC-SS", sleeps)
	}
}

// TestMachineOptionsRejected checks that trace generation refuses machine
// parameters it cannot honour — a negative traced processor used to panic
// inside the generator — with the same check the command lines run.
func TestMachineOptionsRejected(t *testing.T) {
	for _, tc := range []struct {
		mutate func(*Options)
		want   string
	}{
		{func(o *Options) { o.TraceCPU = -1 }, "-tracecpu"},
		{func(o *Options) { o.NumCPUs = -4 }, "-cpus"},
	} {
		opts := DefaultOptions()
		opts.Scale = apps.ScaleSmall
		opts.Apps = []string{"lu"}
		tc.mutate(&opts)
		_, err := New(opts).Run("lu")
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: err = %v, want a plain error naming %s", tc.want, err, tc.want)
		}
	}
	for _, tc := range []struct {
		cpus, traceCPU int
		chosen         bool
		latency        uint64
		ok             bool
	}{
		{16, 1, false, 50, true},
		{1, 1, false, 50, true}, // the default traced processor wraps
		{1, 1, true, 50, false},
		{2, 5, true, 50, false},
		{2, -1, false, 50, false},
		{0, 0, false, 50, false},
		{2, 0, true, 0, false},
		{2, 0, true, 1 << 32, false},
	} {
		if err := CheckMachine(tc.cpus, tc.traceCPU, tc.chosen, tc.latency); (err == nil) != tc.ok {
			t.Errorf("CheckMachine(%d, %d, %t, %d) = %v, want ok=%t", tc.cpus, tc.traceCPU, tc.chosen, tc.latency, err, tc.ok)
		}
	}
}
