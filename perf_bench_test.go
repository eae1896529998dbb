package dynsched

// BenchmarkPerf tracks the repository's layer-level performance claims:
// the serial-vs-parallel wall time of a full figure regeneration
// (WindowSweepAll across all five applications), the steady-state
// allocation count of a pooled-scratch DS replay, DS replay per instruction
// at the largest window, tango trace generation per instruction, time-skip
// replay, cursor decode and the result cache.
// The numbers are written to BENCH_perf.json so they are tracked in the
// repository. On a single-core host the serial and parallel sweeps time
// out the same — the speedup column is only meaningful at GOMAXPROCS >= 2.
//
// TestRunDSSteadyStateAllocs is the regression guard on the allocation
// work: before the scratch pooling a small-scale RC/W64 RunDS replay cost
// 1910 allocs/op; pooling the simulator state brought it to single digits.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"unsafe"

	"dynsched/internal/apps"
	"dynsched/internal/cache"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/exp"
	"dynsched/internal/trace"
)

type perfBenchReport struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Scale      string `json:"scale"`

	SweepSerialNs   float64 `json:"windowsweepall_serial_ns_per_op"`
	SweepParallelNs float64 `json:"windowsweepall_parallel_ns_per_op"`
	// SweepSpeedup is only computed when GOMAXPROCS >= 2: on a single-core
	// host both arms run serially and the "speedup" is pure noise, so the
	// key is omitted (a missing key is one-sided and never diffs as a
	// regression) and SweepSpeedupNote says why. The gomaxprocs field above
	// records the parallelism context the speedup was measured under.
	SweepSpeedup     float64 `json:"windowsweepall_speedup,omitempty"`
	SweepSpeedupNote string  `json:"windowsweepall_speedup_note,omitempty"`

	RunDSNs     float64 `json:"runds_ns_per_op"`
	RunDSAllocs float64 `json:"runds_allocs_per_op"`
	// DS replay of medium ocean under RC at window 256, where the memory
	// port holds the most accesses, in ns per replayed instruction
	// (perfbench's cpu.DS256.ns_per_instr unit).
	DS256NsPerInstr float64 `json:"ds_w256_ns_per_instr"`

	Tango16Ns float64 `json:"tango16_ns_per_op"`
	// Tango generation at medium scale in ns per generated instruction,
	// summed over all processors and including application construction:
	// lu on the default machine, and ocean at a 1000-cycle miss penalty,
	// where miss wakeups land past the ready queue's wheel span.
	TangoMediumNsPerInstr  float64 `json:"tango_medium_ns_per_instr"`
	TangoLat1000NsPerInstr float64 `json:"tango_lat1000_ns_per_instr"`
	// Bytes allocated generating medium lu, per event of its recorded
	// trace; a trace.Event is 48 bytes (TestTangoGenerationAllocs guards
	// the ratio).
	TangoMediumAllocBytesPerEvent float64 `json:"tango_medium_alloc_bytes_per_event"`

	// Event-driven time skip: DS RC/W64 replay cost with skipping on
	// (default) and forced off, at rising miss penalties. The skip arm
	// scales with trace events, the noskip arm with simulated cycles, so
	// the speedup grows with the penalty.
	Lat50SkipNs     float64 `json:"runds_lat50_skip_ns_per_op"`
	Lat50NoskipNs   float64 `json:"runds_lat50_noskip_ns_per_op"`
	Lat200SkipNs    float64 `json:"runds_lat200_skip_ns_per_op"`
	Lat200NoskipNs  float64 `json:"runds_lat200_noskip_ns_per_op"`
	Lat1000SkipNs   float64 `json:"runds_lat1000_skip_ns_per_op"`
	Lat1000NoskipNs float64 `json:"runds_lat1000_noskip_ns_per_op"`
	SkipSpeedup50   float64 `json:"timeskip_speedup_lat50"`
	SkipSpeedup200  float64 `json:"timeskip_speedup_lat200"`
	SkipSpeedup1000 float64 `json:"timeskip_speedup_lat1000"`

	// Encoded trace density, aggregated over the five paper applications.
	TraceV3BytesPerEvent float64 `json:"trace_v3_bytes_per_event"`

	// Streaming v3 decode (trace.Cursor): a full scan of the serialized
	// ocean trace, events handed out through the fixed ring. Steady-state
	// decode is allocation-free, so per-scan allocations are the constant
	// cursor setup and per-event allocations approach zero as traces grow.
	CursorNsPerEvent     float64 `json:"cursor_ns_per_event"`
	CursorAllocsPerScan  float64 `json:"cursor_allocs_per_scan"`
	CursorAllocsPerEvent float64 `json:"cursor_allocs_per_event"`

	// Persistent result cache: one fig3 sweep over lu+mp3d, cold (empty
	// store: generate, replay, and populate) vs warm (every trace and cell
	// served from the store). Warm skips both tango generation and replay,
	// so the speedup is the incremental-sweep win.
	CacheColdSweepNs float64 `json:"cache_cold_sweep_ns"`
	CacheWarmSweepNs float64 `json:"cache_warm_sweep_ns"`
	CacheWarmSpeedup float64 `json:"cache_warm_speedup"`
}

// sweepHarness builds a harness with the given worker bound and all five
// traces pre-generated, so the benchmark measures only the replay fan-out.
func sweepHarness(b *testing.B, workers int) *exp.Experiment {
	b.Helper()
	opts := exp.DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Workers = workers
	e := exp.New(opts)
	if _, err := e.RunAll(e.Apps()...); err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkPerf(b *testing.B) {
	b.ReportAllocs()
	rep := perfBenchReport{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: "small",
	}

	b.Run("WindowSweepAll/serial", func(b *testing.B) {
		b.ReportAllocs()
		e := sweepHarness(b, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.WindowSweepAll(); err != nil {
				b.Fatal(err)
			}
		}
		rep.SweepSerialNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("WindowSweepAll/parallel", func(b *testing.B) {
		b.ReportAllocs()
		e := sweepHarness(b, 0) // GOMAXPROCS workers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.WindowSweepAll(); err != nil {
				b.Fatal(err)
			}
		}
		rep.SweepParallelNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("RunDS", func(b *testing.B) {
		b.ReportAllocs()
		e := benchHarness(b)
		run, err := e.Run("ocean")
		if err != nil {
			b.Fatal(err)
		}
		cfg := cpu.Config{Model: consistency.RC, Window: 64}
		if _, err := cpu.RunDS(run.Trace, cfg); err != nil { // warm the scratch pool
			b.Fatal(err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.RunDS(run.Trace, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		rep.RunDSNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		rep.RunDSAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
	})

	{
		opts := exp.DefaultOptions()
		opts.Scale = apps.ScaleMedium
		opts.Apps = []string{"ocean"}
		run, err := exp.New(opts).Run("ocean")
		if err != nil {
			b.Fatal(err)
		}
		b.Run("RunDS/W256", func(b *testing.B) {
			b.ReportAllocs()
			cfg := cpu.Config{Model: consistency.RC, Window: 256}
			if _, err := cpu.RunDS(run.Trace, cfg); err != nil { // warm the scratch pool
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cpu.RunDS(run.Trace, cfg); err != nil {
					b.Fatal(err)
				}
			}
			rep.DS256NsPerInstr = float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(run.Trace.Len())
			b.ReportMetric(rep.DS256NsPerInstr, "ns/instr")
		})
	}

	b.Run("Tango16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts := exp.DefaultOptions()
			opts.Scale = apps.ScaleSmall
			opts.Apps = []string{"mp3d"}
			e := exp.New(opts)
			if _, err := e.Run("mp3d"); err != nil {
				b.Fatal(err)
			}
		}
		rep.Tango16Ns = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	// allocSlot, when non-nil, receives the bytes allocated per event of
	// the recorded trace.
	tangoArm := func(name, app string, penalty uint32, slot, allocSlot *float64) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var instrs, events uint64
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				opts := exp.DefaultOptions()
				opts.Scale = apps.ScaleMedium
				if penalty != 0 {
					opts.MissPenalty = penalty
				}
				opts.Apps = []string{app}
				run, err := exp.New(opts).Run(app)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range run.CPUs {
					instrs += c.Instructions
				}
				events += uint64(run.Trace.Len())
			}
			runtime.ReadMemStats(&ms1)
			*slot = float64(b.Elapsed().Nanoseconds()) / float64(instrs)
			b.ReportMetric(*slot, "ns/instr")
			if allocSlot != nil {
				*allocSlot = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(events)
				b.ReportMetric(*allocSlot, "alloc-B/event")
			}
		})
	}
	tangoArm("TangoMedium", "lu", 0, &rep.TangoMediumNsPerInstr, &rep.TangoMediumAllocBytesPerEvent)
	tangoArm("TangoLat1000", "ocean", 1000, &rep.TangoLat1000NsPerInstr, nil)

	b.Run("CursorScan", func(b *testing.B) {
		b.ReportAllocs()
		e := benchHarness(b)
		run, err := e.Run("ocean")
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := run.Trace.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		r := bytes.NewReader(raw)
		nEvents := run.Trace.Len()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(raw)
			c, err := trace.NewCursor(r)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := c.Next(); err != nil {
					if err != io.EOF {
						b.Fatal(err)
					}
					break
				}
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		rep.CursorAllocsPerScan = float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
		rep.CursorAllocsPerEvent = rep.CursorAllocsPerScan / float64(nEvents)
		rep.CursorNsPerEvent = float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(nEvents)
		b.ReportMetric(rep.CursorNsPerEvent, "ns/event")
	})

	// The incremental-sweep claim: a fig3 sweep against an empty store pays
	// generation + replay + population; the same sweep against the warm
	// store decodes cached traces and copies cached cell numbers. A fresh
	// Experiment per iteration keeps in-memory trace memoization out of the
	// measurement — only the on-disk store carries state between runs.
	cacheSweep := func(b *testing.B, dir string) {
		store, err := cache.Open(dir, cache.Options{Version: Version})
		if err != nil {
			b.Fatal(err)
		}
		opts := exp.DefaultOptions()
		opts.Scale = apps.ScaleSmall
		opts.Apps = []string{"lu", "mp3d"}
		opts.Cache = store
		e := exp.New(opts)
		if _, err := e.Figure3All(); err != nil {
			b.Fatal(err)
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("CacheSweep/cold", func(b *testing.B) {
		b.ReportAllocs()
		base := b.TempDir()
		for i := 0; i < b.N; i++ {
			cacheSweep(b, fmt.Sprintf("%s/cold%d", base, i))
		}
		rep.CacheColdSweepNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("CacheSweep/warm", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		cacheSweep(b, dir) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cacheSweep(b, dir)
		}
		rep.CacheWarmSweepNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if rep.CacheWarmSweepNs > 0 {
		rep.CacheWarmSpeedup = rep.CacheColdSweepNs / rep.CacheWarmSweepNs
		b.ReportMetric(rep.CacheWarmSpeedup, "cache-warm-speedup")
	}

	latNs := map[uint32][2]*float64{
		50:   {&rep.Lat50SkipNs, &rep.Lat50NoskipNs},
		200:  {&rep.Lat200SkipNs, &rep.Lat200NoskipNs},
		1000: {&rep.Lat1000SkipNs, &rep.Lat1000NoskipNs},
	}
	for _, penalty := range []uint32{50, 200, 1000} {
		opts := exp.DefaultOptions()
		opts.Scale = apps.ScaleSmall
		opts.MissPenalty = penalty
		opts.Apps = []string{"ocean"}
		e := exp.New(opts)
		run, err := e.Run("ocean")
		if err != nil {
			b.Fatal(err)
		}
		for armIdx, noskip := range []bool{false, true} {
			name := "skip"
			if noskip {
				name = "noskip"
			}
			slot := latNs[penalty][armIdx]
			b.Run(fmt.Sprintf("RunDS/lat%d/%s", penalty, name), func(b *testing.B) {
				b.ReportAllocs()
				cfg := cpu.Config{Model: consistency.RC, Window: 64, NoTimeSkip: noskip}
				if _, err := cpu.RunDS(run.Trace, cfg); err != nil { // warm the scratch pool
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cpu.RunDS(run.Trace, cfg); err != nil {
						b.Fatal(err)
					}
				}
				*slot = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			})
		}
	}
	if rep.Lat50NoskipNs > 0 {
		rep.SkipSpeedup50 = rep.Lat50NoskipNs / rep.Lat50SkipNs
	}
	if rep.Lat200NoskipNs > 0 {
		rep.SkipSpeedup200 = rep.Lat200NoskipNs / rep.Lat200SkipNs
	}
	if rep.Lat1000NoskipNs > 0 {
		rep.SkipSpeedup1000 = rep.Lat1000NoskipNs / rep.Lat1000SkipNs
		b.ReportMetric(rep.SkipSpeedup1000, "timeskip-speedup@1000")
	}

	// Encoded trace size, aggregated over all five paper applications.
	{
		e := benchHarness(b)
		var v3Bytes, events int64
		for _, app := range e.Apps() {
			run, err := e.Run(app)
			if err != nil {
				b.Fatal(err)
			}
			n, err := run.Trace.WriteTo(io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			v3Bytes += n
			events += int64(run.Trace.Len())
		}
		rep.TraceV3BytesPerEvent = float64(v3Bytes) / float64(events)
		b.ReportMetric(rep.TraceV3BytesPerEvent, "v3-bytes/event")
	}

	if rep.SweepSerialNs > 0 && rep.SweepParallelNs > 0 {
		if rep.GOMAXPROCS >= 2 {
			rep.SweepSpeedup = rep.SweepSerialNs / rep.SweepParallelNs
			b.ReportMetric(rep.SweepSpeedup, "sweep-speedup")
		} else {
			rep.SweepSpeedupNote = fmt.Sprintf(
				"speedup not computed: GOMAXPROCS=%d, the serial and parallel sweeps are the same arm",
				rep.GOMAXPROCS)
			b.Log(rep.SweepSpeedupNote)
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_perf.json", append(out, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTangoGenerationAllocs is the allocation guard on trace recording:
// generating medium lu (application construction, the 16-processor tango
// run and the recorded trace) must allocate at most 3x the bytes of the
// trace's own events. Growing Events by append and then trimming the slack
// with a copy cost 6.2x; recording into fixed chunks with one exactly sized
// copy at the end costs about 2.4x.
func TestTangoGenerationAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale generation is slow at -short")
	}
	opts := exp.DefaultOptions()
	opts.Scale = apps.ScaleMedium
	opts.Apps = []string{"lu"}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	run, err := exp.New(opts).Run("lu")
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatal(err)
	}
	eventBytes := float64(run.Trace.Len()) * float64(unsafe.Sizeof(trace.Event{}))
	ratio := float64(ms1.TotalAlloc-ms0.TotalAlloc) / eventBytes
	t.Logf("medium lu: %d events, %.1f MB of events, allocated %.2fx that", run.Trace.Len(), eventBytes/1e6, ratio)
	if ratio > 3 {
		t.Errorf("generating medium lu allocated %.2fx its event bytes, want <= 3", ratio)
	}
}

// TestRunDSSteadyStateAllocs is the allocation regression guard: a pooled
// RC/W64 replay must stay far below the 1910 allocs/op the pre-pooling
// simulator cost (the acceptance bar is a 5x reduction, i.e. <= 382).
func TestRunDSSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow at -short")
	}
	opts := exp.DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"ocean"}
	e := exp.New(opts)
	run, err := e.Run("ocean")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.Config{Model: consistency.RC, Window: 64}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := cpu.RunDS(run.Trace, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Generous headroom over the measured ~6 allocs/op, still ~20x under
	// the 382 acceptance bar.
	if allocs > 100 {
		t.Errorf("RunDS steady state = %.0f allocs/op, want <= 100 (pre-pooling baseline was 1910)", allocs)
	}
}
