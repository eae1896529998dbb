package dynsched

// BenchmarkObsOverhead guards the observability layer's core promise: with
// no sinks attached (the default configuration) the instrumented replay
// loops pay only nil checks. The benchmark replays the same trace through
// the DS model with instrumentation disabled and with one instrument at a
// time attached (the metrics registry, the pipeline tracer, the interval
// sampler, the critical-path collector), reports each one's cost against
// the shared disabled baseline, and writes BENCH_obs.json so the numbers
// are tracked in the repository.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

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
	DisabledNs   float64 `json:"disabled_ns_per_op"`
	// Each arm attaches one instrument; its overhead is measured against
	// the fully-disabled baseline. Metrics is the -metrics-out registry,
	// Pipe the -pipe-trace-out tracer, Timeline the interval sampler of the
	// `hidelat timeline` configuration, and CritPath the collector of the
	// `hidelat analyze` configuration.
	MetricsNs           float64 `json:"metrics_ns_per_op"`
	MetricsOverheadPct  float64 `json:"metrics_overhead_pct"`
	PipeNs              float64 `json:"pipe_ns_per_op"`
	PipeOverheadPct     float64 `json:"pipe_overhead_pct"`
	TimelineNs          float64 `json:"timeline_ns_per_op"`
	TimelineOverheadPct float64 `json:"timeline_overhead_pct"`
	CritPathNs          float64 `json:"critpath_ns_per_op"`
	CritPathOverheadPct float64 `json:"critpath_overhead_pct"`
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
	}

	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		cfg := cpu.Config{Model: consistency.RC, Window: 64}
		for i := 0; i < b.N; i++ {
			if _, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(tr), cfg); err != nil {
				b.Fatal(err)
			}
		}
		rep.DisabledNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	// The sinks are allocated once and reused, as a long-lived harness
	// would: each arm measures the per-instruction instrumentation cost, not
	// registry or ring-buffer allocation.
	b.Run("metrics", func(b *testing.B) {
		b.ReportAllocs()
		cfg := cpu.Config{
			Model: consistency.RC, Window: 64,
			Metrics: obs.NewRegistry(), MetricsPrefix: "cpu.ocean.",
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(tr), cfg); err != nil {
				b.Fatal(err)
			}
		}
		rep.MetricsNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("pipe", func(b *testing.B) {
		b.ReportAllocs()
		cfg := cpu.Config{Model: consistency.RC, Window: 64, Pipe: obs.NewPipeTracer(0)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(tr), cfg); err != nil {
				b.Fatal(err)
			}
		}
		rep.PipeNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("timeline", func(b *testing.B) {
		b.ReportAllocs()
		// One sampler per replay, as the timeline step runs it: the dominant
		// cost is the per-cycle boundary check and occupancy sums, not the
		// bounded ring (at most 256 points regardless of run length).
		cfg := cpu.Config{Model: consistency.RC, Window: 64}
		for i := 0; i < b.N; i++ {
			cfg.Timeline = obs.NewTimeline(10, 256)
			if _, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(tr), cfg); err != nil {
				b.Fatal(err)
			}
		}
		rep.TimelineNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("critpath", func(b *testing.B) {
		b.ReportAllocs()
		// One collector per replay, as the analyze step attaches it.
		cfg := cpu.Config{Model: consistency.RC, Window: 64}
		for i := 0; i < b.N; i++ {
			cfg.CritPath = critpath.NewCollector()
			if _, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(tr), cfg); err != nil {
				b.Fatal(err)
			}
		}
		rep.CritPathNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	// The report is written only when every arm ran (not under a -bench
	// filter that selects some of them).
	if rep.DisabledNs > 0 && rep.MetricsNs > 0 && rep.PipeNs > 0 && rep.TimelineNs > 0 && rep.CritPathNs > 0 {
		overhead := func(ns float64) float64 { return 100 * (ns - rep.DisabledNs) / rep.DisabledNs }
		rep.MetricsOverheadPct = overhead(rep.MetricsNs)
		rep.PipeOverheadPct = overhead(rep.PipeNs)
		rep.TimelineOverheadPct = overhead(rep.TimelineNs)
		rep.CritPathOverheadPct = overhead(rep.CritPathNs)
		b.ReportMetric(rep.MetricsOverheadPct, "%metrics-overhead")
		b.ReportMetric(rep.PipeOverheadPct, "%pipe-overhead")
		b.ReportMetric(rep.CritPathOverheadPct, "%critpath-overhead")
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_obs.json", append(out, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
