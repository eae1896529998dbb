package dynsched

// BenchmarkObsOverhead guards the observability layer's core promise: with
// no sinks attached (the default configuration) the instrumented replay
// loops pay only nil checks. The benchmark replays the same trace through
// the DS model with instrumentation disabled and with one instrument at a
// time attached (the metrics registry, the pipeline tracer, the interval
// sampler, the critical-path collector), reports each one's cost against
// the disabled baseline, and writes BENCH_obs.json so the numbers are
// tracked in the repository.
//
// The arms run in alternating rounds — disabled, metrics, pipe, timeline,
// critpath, then again — so a drift in the host's speed lands on every arm
// alike, and each figure is a median over the rounds: one regeneration of
// the file is comparable with the next.

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/critpath"
	"dynsched/internal/obs"
)

type obsBenchReport struct {
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	App          string  `json:"app"`
	Instructions uint64  `json:"instructions"`
	Model        string  `json:"model"`
	Window       int     `json:"window"`
	Rounds       int     `json:"rounds"`
	Replays      int     `json:"replays_per_round"` // per arm; b.N
	DisabledNs   float64 `json:"disabled_ns_per_op"`
	// Each arm attaches one instrument. Its ns_per_op is the median over
	// the rounds, and its overhead_pct the median of the rounds' overheads
	// against the disabled arm of the same round. Metrics is the
	// -metrics-out registry, Pipe the -pipe-trace-out tracer, Timeline the
	// interval sampler and CritPath the collector that every `hidelat
	// analyze` and `timeline` replay attaches.
	MetricsNs           float64 `json:"metrics_ns_per_op"`
	MetricsOverheadPct  float64 `json:"metrics_overhead_pct"`
	PipeNs              float64 `json:"pipe_ns_per_op"`
	PipeOverheadPct     float64 `json:"pipe_overhead_pct"`
	TimelineNs          float64 `json:"timeline_ns_per_op"`
	TimelineOverheadPct float64 `json:"timeline_overhead_pct"`
	CritPathNs          float64 `json:"critpath_ns_per_op"`
	CritPathOverheadPct float64 `json:"critpath_overhead_pct"`
}

// obsRounds is the number of alternating rounds; every reported figure is
// a median over them.
const obsRounds = 7

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func BenchmarkObsOverhead(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	run, err := e.Run("ocean")
	if err != nil {
		b.Fatal(err)
	}
	tr := run.Trace
	rep := obsBenchReport{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		App: "ocean", Instructions: uint64(tr.Len()), Model: "RC", Window: 64,
		Rounds: obsRounds, Replays: b.N,
	}

	// Each arm returns the configuration of one replay. The registry and the
	// pipe tracer are allocated once and reused, as a long-lived harness
	// would; the sampler and the collector are fresh per replay, as the
	// probe sweeps attach them. Every arm thus measures the per-instruction
	// instrumentation cost, not sink allocation.
	reg, pipe := obs.NewRegistry(), obs.NewPipeTracer(0)
	base := cpu.Config{Model: consistency.RC, Window: 64}
	arms := []struct {
		name string
		cfg  func() cpu.Config
	}{
		{"disabled", func() cpu.Config { return base }},
		{"metrics", func() cpu.Config {
			c := base
			c.Metrics, c.MetricsPrefix = reg, "cpu.ocean."
			return c
		}},
		{"pipe", func() cpu.Config {
			c := base
			c.Pipe = pipe
			return c
		}},
		{"timeline", func() cpu.Config {
			c := base
			c.Timeline = obs.NewTimeline(10, 256)
			return c
		}},
		{"critpath", func() cpu.Config {
			c := base
			c.CritPath = critpath.NewCollector()
			return c
		}},
	}
	ns := make([][]float64, len(arms))       // [arm][round] ns per replay
	overhead := make([][]float64, len(arms)) // [arm][round] % over the round's disabled arm
	b.ResetTimer()
	for r := 0; r < obsRounds; r++ {
		for a, arm := range arms {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(tr), arm.cfg()); err != nil {
					b.Fatal(err)
				}
			}
			ns[a] = append(ns[a], float64(time.Since(start).Nanoseconds())/float64(b.N))
			overhead[a] = append(overhead[a], 100*(ns[a][r]-ns[0][r])/ns[0][r])
		}
	}
	b.StopTimer()

	rep.DisabledNs = median(ns[0])
	rep.MetricsNs, rep.MetricsOverheadPct = median(ns[1]), median(overhead[1])
	rep.PipeNs, rep.PipeOverheadPct = median(ns[2]), median(overhead[2])
	rep.TimelineNs, rep.TimelineOverheadPct = median(ns[3]), median(overhead[3])
	rep.CritPathNs, rep.CritPathOverheadPct = median(ns[4]), median(overhead[4])
	b.ReportMetric(rep.DisabledNs, "ns/op")
	b.ReportMetric(rep.MetricsOverheadPct, "%metrics-overhead")
	b.ReportMetric(rep.PipeOverheadPct, "%pipe-overhead")
	b.ReportMetric(rep.TimelineOverheadPct, "%timeline-overhead")
	b.ReportMetric(rep.CritPathOverheadPct, "%critpath-overhead")
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
