package exp

// Tests for the parallel experiment scheduler: worker-count independence
// (the rendered artifacts must be byte-identical at any worker count),
// single-flight trace generation, runJobs semantics, and pooled-scratch
// safety under concurrent replays (meaningful under -race).

import (
	"errors"
	"sync"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
)

// newSmallExperiment returns a harness at unit-test scale with the given
// worker bound, restricted to two applications to keep the test fast.
func newSmallExperiment(workers int) *Experiment {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d", "ocean"}
	opts.Workers = workers
	return New(opts)
}

// TestWorkerCountDeterminism pins the scheduler's core guarantee: the
// rendered figures are byte-identical whether the replays run serially or
// fanned out across eight workers.
func TestWorkerCountDeterminism(t *testing.T) {
	render := func(workers int) (string, string) {
		e := newSmallExperiment(workers)
		f3, err := e.Figure3All()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := e.WindowSweepAll()
		if err != nil {
			t.Fatal(err)
		}
		return FormatAppColumns("fig3", f3), FormatAppColumns("sweep", ws)
	}
	serial3, serialWS := render(1)
	par3, parWS := render(8)
	if serial3 != par3 {
		t.Errorf("Figure3All differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial3, par3)
	}
	if serialWS != parWS {
		t.Errorf("WindowSweepAll differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialWS, parWS)
	}
}

// TestRunAllSingleFlight verifies concurrent Run calls for the same app
// generate the trace exactly once and hand every caller the same run.
func TestRunAllSingleFlight(t *testing.T) {
	e := newSmallExperiment(0)
	const callers = 8
	runs := make([]*AppRun, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			r, err := e.Run("mp3d")
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if runs[i] != runs[0] {
			t.Fatalf("caller %d got a different *AppRun than caller 0", i)
		}
	}
}

func TestRunJobs(t *testing.T) {
	t.Run("covers-all-indices", func(t *testing.T) {
		for _, workers := range []int{0, 1, 3, 16} {
			const n = 37
			hits := make([]int32, n)
			var mu sync.Mutex
			err := runJobs(n, workers, func(i int) error {
				mu.Lock()
				hits[i]++
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
				}
			}
		}
	})
	t.Run("error-propagates", func(t *testing.T) {
		boom := errors.New("boom")
		for _, workers := range []int{1, 4} {
			err := runJobs(20, workers, func(i int) error {
				if i == 7 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("workers=%d: err = %v, want boom", workers, err)
			}
		}
	})
	t.Run("zero-jobs", func(t *testing.T) {
		if err := runJobs(0, 4, func(int) error { t.Fatal("ran"); return nil }); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentReplaysShareNothing replays the same trace through the
// pooled-scratch processor models from many goroutines at once and checks
// every replay returns identical numbers — the -race guard for the
// sync.Pool scratch reuse in internal/cpu.
func TestConcurrentReplaysShareNothing(t *testing.T) {
	e := newSmallExperiment(0)
	run, err := e.Run("ocean")
	if err != nil {
		t.Fatal(err)
	}
	wantDS, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(run.Trace), cpu.Config{Model: consistency.RC, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	wantSS, err := cpu.Replay(cpu.ArchSS, cpu.TraceSource(run.Trace), cpu.Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ds, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(run.Trace), cpu.Config{Model: consistency.RC, Window: 64})
				if err != nil {
					t.Error(err)
					return
				}
				if ds.Breakdown != wantDS.Breakdown {
					t.Errorf("concurrent DS breakdown = %+v, want %+v", ds.Breakdown, wantDS.Breakdown)
					return
				}
				ss, err := cpu.Replay(cpu.ArchSS, cpu.TraceSource(run.Trace), cpu.Config{Model: consistency.RC})
				if err != nil {
					t.Error(err)
					return
				}
				if ss.Breakdown != wantSS.Breakdown {
					t.Errorf("concurrent SS breakdown = %+v, want %+v", ss.Breakdown, wantSS.Breakdown)
					return
				}
			}
		}()
	}
	wg.Wait()
}
