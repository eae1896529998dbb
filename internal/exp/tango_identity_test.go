package exp

// TestPinnedTraceAddrs pins the content address of generated traces at the
// edges of the tango scheduler's ready queue: more than 64 processors (a
// multi-word bucket mask), miss penalties past the wheel span (every miss
// wakeup lands in the overflow heap), and finite memory bandwidth, whose
// queueing delay pushes wakeups past the span even at the paper's 50-cycle
// penalty. Each address was recorded from the binary-heap scheduler the
// wheel replaced, so a trace that moves here means the interleaving of the
// processors changed. CI runs this test as part of the scheduler
// equivalence gate.

import (
	"fmt"
	"testing"

	"dynsched/internal/apps"
)

func TestPinnedTraceAddrs(t *testing.T) {
	cases := []struct {
		scale    apps.Scale
		app      string
		cpus     int
		latency  uint32
		interval uint32 // Options.MemIssueInterval
		want     string
	}{
		{apps.ScaleMedium, "pthor", 72, 50, 0, "e7fbc174631f1e3c"},
		{apps.ScaleMedium, "locus", 100, 600, 0, "856dc342dd55028d"},
		{apps.ScaleSmall, "mp3d", 16, 1000, 0, "2e47c1240d6897b7"},
		{apps.ScaleMedium, "ocean", 16, 300, 0, "4b27761a714de71e"},
		// The same trace at interval 0 never schedules a wakeup 256 or
		// more cycles ahead; at interval 20 about 2300 wakeups do.
		{apps.ScaleSmall, "ocean", 16, 50, 20, "969ab20fff8353ec"},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s/cpus%d/lat%d/iv%d", c.scale, c.app, c.cpus, c.latency, c.interval)
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Scale = c.scale
			opts.NumCPUs = c.cpus
			opts.MissPenalty = c.latency
			opts.MemIssueInterval = c.interval
			opts.Apps = []string{c.app}
			run, err := New(opts).Run(c.app)
			if err != nil {
				t.Fatal(err)
			}
			got, err := run.Trace.ContentAddr()
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("content address = %s, want %s", got, c.want)
			}
		})
	}
}
