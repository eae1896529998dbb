package cpu

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dynsched/internal/consistency"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

// stallTrace holds an acquire whose contention wait W is far beyond the
// test's watchdog budget, producing a long legitimate no-retire stretch —
// exactly the signature of a livelocked replay.
func stallTrace(wait uint32) *trace.Trace {
	return newTB().
		alu(1, 0, 0).
		lock(256, wait, 50).
		unlock(256, 1).
		halt()
}

func TestWatchdogKillsStalledReplay(t *testing.T) {
	tr := stallTrace(1 << 22)
	for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
		model := string(arch)
		c := cfg(consistency.SC, 64)
		c.WatchdogBudget = 100
		_, err := replay(arch, tr, c)
		if err == nil {
			t.Fatalf("%s: stalled replay not killed", model)
		}
		var wd *WatchdogError
		if !errors.As(err, &wd) {
			t.Fatalf("%s: err = %v, want *WatchdogError", model, err)
		}
		if wd.Model != model {
			t.Errorf("model = %q, want %q", wd.Model, model)
		}
		if wd.Budget != 100 || wd.Cycle <= wd.LastProgress {
			t.Errorf("%s: bad watchdog bookkeeping: %+v", model, wd)
		}
		if wd.State == "" {
			t.Errorf("%s: watchdog fired without a pipeline-state dump", model)
		}
		if !wd.Permanent() {
			t.Errorf("%s: watchdog errors must be permanent (not retried)", model)
		}
		if !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "state:") {
			t.Errorf("%s: undiagnosable error text: %v", model, err)
		}
	}
}

// TestWatchdogFiresUnderTimeSkip guards the interaction between the
// watchdog and the event-driven time-skip path. The stall's wait is
// deliberately not a multiple of the poll stride: a cycle-masked poll
// (t&(stride-1)==0, the pre-skip design) would never be evaluated once the
// skip path jumps straight from the stall's onset to the acquire wall,
// letting a livelock sail past the budget unnoticed. The iteration-strided
// polls plus the poll at every jump landing must catch the stagnation under
// both stepping disciplines.
func TestWatchdogFiresUnderTimeSkip(t *testing.T) {
	tr := stallTrace(1<<22 + 12345)
	for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
		model := string(arch)
		for _, noskip := range []bool{false, true} {
			c := cfg(consistency.SC, 64)
			c.WatchdogBudget = 100
			c.NoTimeSkip = noskip
			_, err := replay(arch, tr, c)
			var wd *WatchdogError
			if !errors.As(err, &wd) {
				t.Fatalf("%s noskip=%v: err = %v, want *WatchdogError", model, noskip, err)
			}
			if wd.Cycle-wd.LastProgress <= wd.Budget {
				t.Errorf("%s noskip=%v: fired within budget: %+v", model, noskip, wd)
			}
		}
	}
}

// The same stall under the default budget must complete: long waits are
// legitimate, only stagnation beyond the budget is not.
func TestWatchdogDefaultBudgetAllowsLongWaits(t *testing.T) {
	tr := stallTrace(1 << 18)
	for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
		if _, err := replay(arch, tr, cfg(consistency.SC, 64)); err != nil {
			t.Fatalf("legitimate long wait killed: %v", err)
		}
	}
}

// A generous explicit budget must not fire on a normal replay either.
func TestWatchdogQuietOnNormalReplay(t *testing.T) {
	tr := newTB().
		alu(1, 0, 0).
		load(2, 1, 64, true).
		store(1, 2, 128, true).
		halt()
	for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
		c := cfg(consistency.RC, 64)
		c.WatchdogBudget = 1 << 20
		if _, err := replay(arch, tr, c); err != nil {
			t.Fatalf("watchdog fired on a healthy replay: %v", err)
		}
	}
}

func TestReplayCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := stallTrace(30)
	for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
		c := cfg(consistency.SC, 64)
		c.Ctx = ctx
		_, err := replay(arch, tr, c)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled replay returned %v, want context.Canceled", err)
		}
	}
	// A live context changes nothing.
	for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
		c := cfg(consistency.SC, 64)
		c.Ctx = context.Background()
		if _, err := replay(arch, tr, c); err != nil {
			t.Fatalf("background ctx broke the replay: %v", err)
		}
	}
}

// cancelAfter is a context that is cancelled at its polls-th Done poll, so
// a replay is cancelled deterministically partway through.
type cancelAfter struct {
	context.Context
	polls int
	done  chan struct{}
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.polls--; c.polls == 0 {
		close(c.done)
	}
	return c.done
}

func (c *cancelAfter) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// A replay that does not finish publishes no metrics: its occupancy and
// read-miss delay histograms are its own until it finishes. Neither a
// replay cancelled partway through nor one killed by the watchdog
// publishes any, while the same replay left to finish does.
func TestReplayCtxCancelPublishesNothing(t *testing.T) {
	long, stalled := randomTrace(1, 50000), stallTrace(1<<22)
	for _, arch := range []Arch{ArchSSBR, ArchSS, ArchDS} {
		c := cfg(consistency.RC, 64)
		c.NoTimeSkip = true
		c.Metrics = obs.NewRegistry()
		c.Ctx = &cancelAfter{Context: context.Background(), polls: 3, done: make(chan struct{})}
		if _, err := replay(arch, long, c); !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "at cycle 0:") {
			t.Fatalf("%s: err = %v, want a cancellation partway through", arch, err)
		}
		if names := c.Metrics.Names(); len(names) != 0 {
			t.Errorf("%s: cancelled replay published %v", arch, names)
		}

		c = cfg(consistency.SC, 64)
		c.Metrics = obs.NewRegistry()
		c.WatchdogBudget = 100
		var wd *WatchdogError
		if _, err := replay(arch, stalled, c); !errors.As(err, &wd) {
			t.Fatalf("%s: err = %v, want *WatchdogError", arch, err)
		}
		if names := c.Metrics.Names(); len(names) != 0 {
			t.Errorf("%s: replay killed by the watchdog published %v", arch, names)
		}

		c = cfg(consistency.RC, 64)
		c.Metrics = obs.NewRegistry()
		if _, err := replay(arch, long, c); err != nil {
			t.Fatal(err)
		}
		if n := len(c.Metrics.Snapshot().Histograms); n == 0 {
			t.Errorf("%s: finished replay published no histogram", arch)
		}
	}
}
