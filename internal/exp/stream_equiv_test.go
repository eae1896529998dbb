package exp

// TestStreamEquivalence is the property test behind the zero-copy streaming
// replay path: for every processor model, consistency model, window size,
// and miss penalty in the TestSkipEquivalence grid, replaying a serialized
// trace through a trace.Cursor (chunk-at-a-time, no whole-trace []Event)
// must produce a Result byte-identical to replaying the materialized trace,
// including every stall-breakdown category, the occupancy average, the
// read-miss delay histogram, and the full observability snapshot that feeds
// the run ledger's determinism checksum. CI runs this test as a standalone
// gate alongside the time-skip equivalence.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

func TestStreamEquivalence(t *testing.T) {
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
			// One serialized container per app: every streaming arm decodes
			// the same bytes a trace file would hold.
			var buf bytes.Buffer
			if _, err := run.Trace.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			for _, model := range models {
				for _, c := range skipEquivCells() {
					label := fmt.Sprintf("lat%d/%s/%s/%s", penalty, app, model, c.label)
					cfg := cpu.Config{Model: model, Window: c.window}
					if c.extra != nil {
						c.extra(&cfg)
					}

					regM := obs.NewRegistry()
					cfgM := cfg
					cfgM.Metrics = regM
					cfgM.MetricsPrefix = "equiv."
					want, err := cpu.Replay(c.arch, cpu.TraceSource(run.Trace), cfgM)
					if err != nil {
						t.Fatalf("%s materialized: %v", label, err)
					}

					cur, err := trace.NewCursor(bytes.NewReader(raw))
					if err != nil {
						t.Fatalf("%s: NewCursor: %v", label, err)
					}
					regS := obs.NewRegistry()
					cfgS := cfg
					cfgS.Metrics = regS
					cfgS.MetricsPrefix = "equiv."
					got, err := cpu.Replay(c.arch, cpu.CursorSource(cur), cfgS)
					if err != nil {
						t.Fatalf("%s streaming: %v", label, err)
					}

					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: Result differs between streaming and materialized:\n stream: %+v\n slice:  %+v",
							label, got, want)
					}
					if sf, mf := obs.SnapshotFNV(regS.Snapshot()), obs.SnapshotFNV(regM.Snapshot()); sf != mf {
						t.Errorf("%s: metrics snapshot FNV differs: streaming %s, materialized %s", label, sf, mf)
					}
				}
			}
		}
	}
}

// TestStreamWindowGuard pins the lookback contract at the API boundary: a
// DS window deeper than the cursor's pointer-retention guarantee must be
// rejected over a cursor, not silently replayed over recycled ring slots.
// The materialized trace takes the same window, and the other three models,
// which copy what they keep out of each event, stream it unchanged.
func TestStreamWindowGuard(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d"}
	e := New(opts)
	run, err := e.Run("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := run.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := cpu.Config{Model: consistency.RC, Window: trace.CursorLookback + 1}
	for _, arch := range cpu.Archs {
		want, err := cpu.Replay(arch, cpu.TraceSource(run.Trace), cfg)
		if err != nil {
			t.Fatalf("%s materialized: %v", arch, err)
		}
		cur, err := trace.NewCursor(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cpu.Replay(arch, cpu.CursorSource(cur), cfg)
		if arch == cpu.ArchDS {
			if err == nil || !strings.Contains(err.Error(), "streaming lookback") {
				t.Fatalf("DS over a cursor accepted a window beyond trace.CursorLookback: err = %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s streaming: %v", arch, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Result differs between streaming and materialized:\n stream: %+v\n slice:  %+v", arch, got, want)
		}
	}
}
