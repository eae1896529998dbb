// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§3.3 Tables 1-3, §4.1 Figures 3 and 4,
// the §7 read-latency-hidden summary, the §4.1.3 read-miss delay analysis,
// and the §4.2 extensions), plus the ablations listed in DESIGN.md.
package exp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dynsched/internal/apps"
	"dynsched/internal/bpred"
	"dynsched/internal/cache"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/faultinject"
	"dynsched/internal/mem"
	"dynsched/internal/obs"
	"dynsched/internal/tango"
	"dynsched/internal/trace"
	"dynsched/internal/vm"
)

// Options selects the machine and workload parameters shared by all
// experiments.
type Options struct {
	NumCPUs     int        // processors in the multiprocessor simulation (paper: 16)
	Scale       apps.Scale // problem sizes
	MissPenalty uint32     // cache miss latency in cycles (paper: 50, §4.2: 100)
	TraceCPU    int        // which processor's trace is replayed
	Apps        []string   // applications; nil = all five

	// MemIssueInterval enables the finite-memory-bandwidth extension: the
	// minimum number of cycles between miss services machine-wide. 0 keeps
	// the paper's unbounded-bandwidth assumption.
	MemIssueInterval uint32

	// NoTimeSkip forces every replay cell back to pure cycle-by-cycle
	// stepping, disabling the event-driven time-skip optimization (see
	// cpu.Config.NoTimeSkip). Results are byte-identical either way; the
	// flag exists for diagnosis and for the equivalence tests.
	NoTimeSkip bool

	// Workers bounds the number of concurrent simulations the harness runs:
	// application trace generations and the independent replay cells of each
	// figure, table, and sweep. 0 selects runtime.GOMAXPROCS(0); 1 forces
	// fully serial execution. Results are always collected in deterministic
	// input order, so every artifact is byte-identical at any worker count.
	Workers int

	// Metrics, when non-nil, collects the observability counters of every
	// trace generation driven through this harness (the "tango." machine
	// metrics plus per-app "exp.<app>." wall-time and throughput gauges).
	Metrics *obs.Registry
	// Progress, when non-nil, receives executed-instruction and simulated-
	// cycle progress from the trace-generation simulations, one labelled
	// lane per application so concurrent generations report side by side.
	Progress *obs.Progress
	// Board, when non-nil, receives one job per unit of harness work —
	// trace generations and the replay cells of figures, sweeps, and
	// ablations — feeding the live server's /jobs endpoint.
	Board *obs.JobBoard
	// Timelines, when non-nil, receives a live interval-sampled timeline
	// per simulation this harness runs — trace generations ("gen <app>")
	// and the replayed cells of the analyze and timeline sweeps ("<app>
	// <label>"; a cell served from the store registers none) — feeding the
	// live server's /timeline endpoint and SSE /events stream.
	Timelines *obs.TimelineHub

	// Ctx cancels the whole sweep cooperatively: trace generations and
	// replay cells poll it and unwind with a context error, so Ctrl-C or a
	// deadline stops a multi-hour run within one watchdog stride. nil never
	// cancels.
	Ctx context.Context
	// Retries is the number of extra attempts a failed replay cell gets
	// before it is marked failed. Only transient failures are retried:
	// watchdog kills, simulator machine errors, cached trace-generation
	// failures, and cancellation are terminal on the first attempt.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling on each
	// subsequent one; 0 selects DefaultRetryBackoff.
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the doubling retry delay; 0 selects
	// DefaultRetryMaxBackoff. The actual waits are jittered deterministically
	// per cell (see retryDelay) and never exceed the cap.
	RetryMaxBackoff time.Duration
	// Sleep replaces time.Sleep for the retry backoff waits, letting tests
	// record and fast-forward the deterministic retry schedule. nil sleeps
	// for real.
	Sleep func(time.Duration)
	// Faults, when non-nil, injects deterministic failures at named sites
	// ("gen.<app>", "cell.<label>") — the fault-injection harness used by
	// the robustness tests and the -race CI job. nil disables injection.
	Faults *faultinject.Injector

	// Cache, when non-nil, memoizes generated traces and replay-cell
	// results on disk (see internal/cache and cache.go in this package). A
	// hit short-circuits the computation but flows through the same
	// by-index merge, so every artifact stays byte-identical to a cold run
	// at any worker count. nil disables memoization.
	Cache *cache.Store
	// CacheVerify is the fraction [0,1] of cell cache hits to recompute
	// and compare against the cached result; a divergence is a terminal
	// cell failure. The selection is a deterministic function of the cell
	// key, so the audited subset is stable across runs.
	CacheVerify float64
}

// CheckMachine validates the machine parameters shared by the command
// lines: the processor count, the traced processor and the miss penalty in
// cycles (taken wide, so a value the 32-bit penalty cannot hold is rejected
// rather than truncated). An explicitly chosen traced processor must be one
// of the simulated ones; otherwise the index wraps, so the default
// TraceCPU 1 names processor 0 of a one-processor machine.
func CheckMachine(cpus, traceCPU int, traceCPUChosen bool, latency uint64) error {
	switch {
	case cpus <= 0:
		return fmt.Errorf("-cpus must be >= 1, got %d", cpus)
	case traceCPU < 0 || traceCPUChosen && traceCPU >= cpus:
		return fmt.Errorf("-tracecpu must be in [0,%d) for -cpus %d, got %d", cpus, cpus, traceCPU)
	case latency < 1 || latency > math.MaxUint32:
		return fmt.Errorf("-latency must be in [1,%d] cycles, got %d", uint32(math.MaxUint32), latency)
	}
	return nil
}

// DefaultOptions returns the paper's main configuration at medium scale.
func DefaultOptions() Options {
	return Options{NumCPUs: 16, Scale: apps.ScaleMedium, MissPenalty: 50, TraceCPU: 1}
}

func (o *Options) fillDefaults() {
	if o.NumCPUs == 0 {
		o.NumCPUs = 16
	}
	if o.MissPenalty == 0 {
		o.MissPenalty = 50
	}
	if o.Apps == nil {
		o.Apps = apps.Names()
	}
}

// AppRun couples an application's trace with the multiprocessor-side
// statistics. The trace's durable form is its v3 bytes (raw): restored from
// the result cache, kept from the store write of a generation, or encoded
// when a storeless generation is first released. Trace is a cache of the
// decoded events over those bytes, filled on demand. A sweep holds the run
// while it replays the application's cells and lets go after the last one;
// a run that no sweep holds drops its events, so a sweep keeps one decoded
// trace per busy worker. A pinned run (one returned by Experiment.Run, or
// built around a caller's trace) keeps its events for good, because its
// callers read Trace directly, and needs no bytes.
type AppRun struct {
	App    string
	Trace  *trace.Trace // set for good by Run; otherwise nil until decoded and after release
	Caches []mem.Stats
	CPUs   []tango.CPUStats

	// addr is the trace's content address (trace.ContentAddr), memoized
	// when the run went through the result cache; "" when caching is off.
	addr string

	// mu guards Trace, raw, holds and pinned once the run is shared.
	mu     sync.Mutex
	raw    []byte // the trace's v3 bytes, container checks passed; nil until encoded and once pinned
	holds  int    // sweeps replaying this run
	pinned bool   // never drop the events: a caller reads Trace directly
	err    error  // a failed decode; decoding is deterministic, so permanent
}

// testHookEvents, when non-nil, is called each time a run gains decoded
// events (generated, or decoded from its bytes: held true) or drops them
// (held false).
var testHookEvents func(r *AppRun, held bool)

// ContentAddr returns the trace's memoized content address, or "" when the
// run was produced without the result cache.
func (r *AppRun) ContentAddr() string { return r.addr }

// view returns a read-only view of the decoded trace, decoding the run's
// bytes first if its events are not held: a shallow *Trace whose Events
// slice is capacity-capped at its length, so concurrent replay cells share
// the one decoded arena without any cell being able to grow it or alias
// past its end. The view stays valid after the run drops its events. It is
// safe for concurrent use.
func (r *AppRun) view() (*trace.Trace, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.decodeLocked(); err != nil {
		return nil, err
	}
	return r.Trace.View(), nil
}

// pin decodes the run's events, if they are not held, and keeps them for
// good: the caller reads Trace directly. A pinned run never drops its
// events, so it lets its bytes go.
func (r *AppRun) pin() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pinned = true
	if err := r.decodeLocked(); err != nil {
		return err
	}
	r.raw = nil
	return nil
}

// decodeLocked decodes the run's bytes into Trace unless its events are
// held. r.mu must be held.
func (r *AppRun) decodeLocked() error {
	if r.Trace != nil || r.err != nil {
		return r.err
	}
	tr, err := trace.ReadTrace(bytes.NewReader(r.raw))
	if err != nil {
		r.err = &permanentError{fmt.Errorf("exp: %s: cached trace: %w", r.App, err)}
		return r.err
	}
	r.Trace = tr
	if h := testHookEvents; h != nil {
		h(r, true)
	}
	return nil
}

// hold marks the run as replayed by one more sweep.
func (r *AppRun) hold() {
	r.mu.Lock()
	r.holds++
	r.mu.Unlock()
}

// release ends one sweep's hold. When no sweep holds the run and it is not
// pinned, it drops its events, encoding its bytes first if it has none,
// and collects the heap. Both collections keep the heap from growing: the
// one before the encode frees what the generation left behind, so the
// encoding reuses its pages; without the one after the drop, the heap goal
// set while the events were live lets the next decode grow the heap
// instead of reusing theirs.
func (r *AppRun) release() {
	r.mu.Lock()
	r.holds--
	drop := r.holds == 0 && !r.pinned && r.Trace != nil
	if drop && r.raw == nil {
		runtime.GC()
		r.raw = encodeTrace(r.Trace)
	}
	if drop {
		r.Trace = nil
		if h := testHookEvents; h != nil {
			h(r, false)
		}
	}
	r.mu.Unlock()
	if drop {
		runtime.GC()
	}
}

// encodeTrace serializes tr into a buffer first grown to about its v3 size
// (eight bytes per event), so the encoding is copied once.
func encodeTrace(tr *trace.Trace) []byte {
	var buf bytes.Buffer
	buf.Grow(8 * tr.Len())
	tr.WriteTo(&buf) //nolint:errcheck // a bytes.Buffer never fails a write
	return buf.Bytes()
}

// Experiment lazily generates and caches application traces.
type Experiment struct {
	opts Options

	// cacheBytes overrides the per-processor cache size (0 = the paper's
	// 64 KB); used by the cache-geometry ablation.
	cacheBytes uint64

	mu   sync.Mutex
	runs map[string]*appEntry
}

// appEntry is the single-flight cache slot for one application's trace:
// concurrent Run calls for the same app share one generation, while
// different apps generate concurrently.
type appEntry struct {
	once sync.Once
	run  *AppRun
	err  error
}

// New creates an experiment harness.
func New(opts Options) *Experiment {
	opts.fillDefaults()
	return &Experiment{opts: opts, runs: make(map[string]*appEntry)}
}

// Options returns the harness options (defaults filled).
func (e *Experiment) Options() Options { return e.opts }

// Run returns the run for app with its trace decoded, generating it on
// first use (see lazyRun). The run is pinned: its Trace stays decoded for
// the life of the Experiment, through every later sweep, so the caller may
// read it directly. It is safe for concurrent use.
func (e *Experiment) Run(app string) (*AppRun, error) {
	run, err := e.lazyRun(app)
	if err != nil {
		return nil, err
	}
	if err := run.pin(); err != nil {
		return nil, err
	}
	return run, nil
}

// lazyRun returns the run for app, generating it on first use, with a
// trace restored from the result cache left undecoded until a replay
// needs it. Sweeps take their runs here, hold them while they replay and
// release them after (see AppRun). It is safe for concurrent use: the
// first caller generates, everyone else waits for that single flight. A
// panic during generation is contained here — it would otherwise poison
// the once and hand every later caller a silent (nil, nil). Failures are
// cached as permanent: the single flight would return the identical error
// without re-running anything, so retrying a cell against a failed
// generation is pointless and attempt() skips it.
func (e *Experiment) lazyRun(app string) (*AppRun, error) {
	e.mu.Lock()
	en := e.runs[app]
	if en == nil {
		en = new(appEntry)
		e.runs[app] = en
	}
	e.mu.Unlock()
	en.once.Do(func() {
		err, stack := protect(func() error {
			var err error
			en.run, err = e.generate(app)
			return err
		})
		if err != nil {
			if stack != nil {
				err = fmt.Errorf("exp: %s: trace generation panicked: %w\n%s", app, err, stack)
			}
			en.run, en.err = nil, &permanentError{err}
		}
	})
	return en.run, en.err
}

// RunAll generates the traces of the given applications (all configured apps
// when none are named) concurrently, bounded by Options.Workers, and returns
// them in argument order.
func (e *Experiment) RunAll(names ...string) ([]*AppRun, error) {
	if len(names) == 0 {
		names = e.Apps()
	}
	runs := make([]*AppRun, len(names))
	err := runJobs(len(names), e.opts.Workers, func(i int) error {
		r, err := e.Run(names[i])
		if err != nil {
			return err
		}
		runs[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// generate performs one application's trace generation (the multiprocessor
// simulation), result check, and validation.
func (e *Experiment) generate(app string) (run *AppRun, err error) {
	job := e.opts.Board.Enqueue("gen " + app)
	e.opts.Board.Start(job)
	defer func() { e.opts.Board.Finish(job, err) }()
	if err := e.opts.Faults.Fire("gen." + app); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", app, err)
	}
	if err := CheckMachine(e.opts.NumCPUs, e.opts.TraceCPU, false, uint64(e.opts.MissPenalty)); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", app, err)
	}
	if run := e.cachedTrace(app, job); run != nil {
		return run, nil
	}
	a, err := apps.Build(app, e.opts.NumCPUs, e.opts.Scale)
	if err != nil {
		return nil, err
	}
	// Each generation reports through its own progress lane, so concurrent
	// applications get side-by-side ticker rows instead of clobbering a
	// shared label.
	lane := e.opts.Progress.Lane(app)
	defer lane.Done()
	// With a store attached the generation always collects its metrics,
	// into a registry of its own when the run has none, so the stored
	// entry serves runs with and without metrics alike.
	reg := e.opts.Metrics
	if reg == nil && e.opts.Cache != nil {
		reg = obs.NewRegistry()
	}
	cfg := tango.Config{
		NumCPUs:  e.opts.NumCPUs,
		TraceCPU: e.opts.TraceCPU % e.opts.NumCPUs,
		Mem:      mem.DefaultConfig(),
		Metrics:  reg,
		Progress: lane,
		Ctx:      e.opts.Ctx,
	}
	cfg.MetricsPrefix = "tango." + app + "."
	if hub := e.opts.Timelines; hub != nil {
		// A live machine-activity timeline for the generation run. Only the
		// first generation of a cached trace records one; it feeds the live
		// view, never a run artifact, so the cache does not cost determinism.
		tl := obs.NewTimeline(genTimelineShift, timelineMaxPoints)
		hub.Register("gen "+app, tl)
		cfg.Timeline = tl
	}
	cfg.Mem.MissPenalty = e.opts.MissPenalty
	cfg.MemIssueInterval = e.opts.MemIssueInterval
	if e.cacheBytes != 0 {
		cfg.Mem.CacheBytes = e.cacheBytes
	}
	var m *vm.PagedMem
	start := time.Now()
	res, err := tango.Run(a.Progs, func(pm *vm.PagedMem) {
		m = pm
		a.Init(pm)
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", app, err)
	}
	if reg != nil {
		wall := time.Since(start).Seconds()
		pre := "exp." + app + "."
		reg.Gauge(pre + "wall_seconds").Set(wall)
		if wall > 0 {
			reg.Gauge(pre + "cycles_per_sec").Set(float64(res.Cycles) / wall)
		}
		reg.Counter(pre + "cycles").Set(res.Cycles)
	}
	if a.Check != nil {
		if err := a.Check(m); err != nil {
			return nil, fmt.Errorf("exp: %s failed its result check: %w", app, err)
		}
	}
	if err := res.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", app, err)
	}
	run = &AppRun{App: app, Trace: res.Trace, Caches: res.CacheStats, CPUs: res.CPUStats}
	if h := testHookEvents; h != nil {
		h(run, true)
	}
	e.putTrace(app, run, reg)
	return run, nil
}

// cachedTrace restores an application run from the result cache: the
// serialized trace, the multiprocessor statistics, and the metrics fragment
// the original generation published — so a warm run's registry hashes
// identically to a cold one's. The trace's container checks run here, but
// its events are decoded only on first use (AppRun.view). Any
// failure is a miss and falls back to regenerating. job is the
// generation's board entry, finished as "cached" on a hit.
func (e *Experiment) cachedTrace(app string, job int) *AppRun {
	var (
		sc         traceSidecar
		traceBytes []byte
		start      = time.Now()
	)
	if _, ok := e.opts.Cache.GetChecked(traceKind, e.traceKey(app), func(payload []byte) error {
		var err error
		if sc, traceBytes, err = decodeTraceEntry(payload); err != nil {
			return err
		}
		// Stat re-verifies the v3 header, per-chunk CRCs and whole-file
		// footer on top of the cache entry's own checksum, without
		// decoding events; a failure here means the entry predates a
		// format change or is torn, so regenerate and overwrite.
		st, err := trace.Stat(bytes.NewReader(traceBytes))
		if err == nil && (st.ChunksOK != st.Chunks || !st.FooterOK) {
			err = fmt.Errorf("exp: cached %s trace fails its chunk or footer check", app)
		}
		return err
	}); !ok {
		return nil
	}
	if reg := e.opts.Metrics; reg != nil {
		reg.LoadSnapshot(sc.Metrics)
		// The fragment's wall/throughput gauges describe the original
		// computation; overwrite with this run's real numbers (both are
		// excluded from the determinism checksum).
		wall := time.Since(start).Seconds()
		pre := "exp." + app + "."
		reg.Gauge(pre + "wall_seconds").Set(wall)
		if wall > 0 {
			reg.Gauge(pre + "cycles_per_sec").Set(float64(reg.Counter(pre+"cycles").Value()) / wall)
		}
	}
	e.opts.Board.FinishCached(job)
	return &AppRun{App: app, raw: traceBytes, Caches: sc.Caches, CPUs: sc.CPUs, addr: traceAddrBytes(traceBytes)}
}

// putTrace stores a freshly generated run in the result cache, with the
// metrics fragment the generation published into reg, and keeps the
// encoded bytes as the run's durable form with their content address.
// Failures degrade to a future regeneration.
func (e *Experiment) putTrace(app string, run *AppRun, reg *obs.Registry) {
	s := e.opts.Cache
	if s == nil {
		return
	}
	run.raw = encodeTrace(run.Trace)
	run.addr = traceAddrBytes(run.raw)
	sc := traceSidecar{
		Caches: run.Caches, CPUs: run.CPUs,
		Metrics: obs.FilterSnapshot(reg.Snapshot(), "tango."+app+".", "exp."+app+"."),
	}
	payload, err := encodeTraceEntry(sc, run.raw)
	if err != nil {
		return
	}
	s.Put(traceKind, e.traceKey(app), payload) //nolint:errcheck
}

// Apps returns the application list for this experiment.
func (e *Experiment) Apps() []string { return e.opts.Apps }

// Windows is the lookahead-window sweep of the paper.
var Windows = []int{16, 32, 64, 128, 256}

// Column is one bar of Figure 3 or Figure 4: a processor configuration and
// its execution-time breakdown, normalized against BASE.
type Column struct {
	Label        string
	Model        consistency.Model
	Arch         string // "BASE", "SSBR", "SS", "DS"
	Window       int    // DS only
	Breakdown    cpu.Breakdown
	Instructions uint64  // instructions replayed (MCPI denominator)
	Normalized   float64 // total execution time as % of BASE
	ReadHidden   float64 // fraction of BASE read-miss stall removed

	// Failed marks a cell whose replay (or whose application's trace
	// generation) failed terminally after retries. The breakdown is zero;
	// Err carries the *CellError. Tables render the row as FAILED, CSV and
	// metrics skip it, and the run ledger lists it under failed_cells.
	Failed bool
	Err    error
}

// RecordColumns publishes a figure's per-column execution-time breakdowns
// into reg under "fig.<figure>.<app>.<label>.". The counters are exactly the
// numbers the text reports print, so a -metrics-out snapshot can be checked
// against the printed figures. No-op with a nil registry.
func RecordColumns(reg *obs.Registry, figure, app string, cols []Column) {
	if reg == nil {
		return
	}
	for _, c := range cols {
		if c.Failed {
			continue
		}
		pre := fmt.Sprintf("fig.%s.%s.%s.", figure, app, c.Label)
		set := func(name string, v uint64) { reg.Counter(pre + name).Set(v) }
		set("cycles.total", c.Breakdown.Total())
		set("cycles.busy", c.Breakdown.Busy)
		set("stall.sync", c.Breakdown.Sync)
		set("stall.read", c.Breakdown.Read)
		set("stall.write", c.Breakdown.Write)
		set("stall.branch", c.Breakdown.Branch)
		set("stall.other", c.Breakdown.Other)
		set("instructions", c.Instructions)
		reg.Gauge(pre + "normalized_pct").Set(c.Normalized)
		if c.Instructions > 0 {
			// MCPI: memory stall cycles per instruction — the run ledger's
			// per-cell latency-hiding figure of merit.
			mcpi := float64(c.Breakdown.Read+c.Breakdown.Write) / float64(c.Instructions)
			reg.Gauge(pre + "mcpi").Set(mcpi)
		}
	}
}

func normalize(cols []Column) {
	// cols[0] is the BASE reference; if it failed there is nothing to
	// normalize against and the surviving columns keep their raw numbers.
	if len(cols) == 0 || cols[0].Failed {
		return
	}
	base := cols[0].Breakdown
	for i := range cols {
		c := &cols[i]
		if c.Failed {
			continue
		}
		if base.Total() > 0 {
			c.Normalized = 100 * float64(c.Breakdown.Total()) / float64(base.Total())
		}
		if base.Read > 0 {
			c.ReadHidden = 1 - float64(c.Breakdown.Read)/float64(base.Read)
		}
	}
}

// traceMatrix replays specs over one supplied trace through the matrix
// driver, fanning the independent replays across GOMAXPROCS workers. The
// run is pinned: the trace is the caller's, so the sweep never drops it.
func traceMatrix(tr *trace.Trace, specs []CellSpec) ([]Column, error) {
	run := &AppRun{Trace: tr, pinned: true}
	acs, _, err := runMatrix(new(Options), []string{""}, func(string) (*AppRun, error) { return run, nil }, specs, noProbe)
	if acs == nil {
		return nil, err
	}
	return acs[0].Cols, err
}

// Figure3 runs the §4.1 processor/model matrix over one application trace.
func Figure3(tr *trace.Trace) ([]Column, error) { return traceMatrix(tr, Figure3Specs()) }

// Figure4 runs the §4.1.3 isolation experiment over one application trace.
func Figure4(tr *trace.Trace) ([]Column, error) { return traceMatrix(tr, Figure4Specs()) }

// WindowSweep runs the DS processor across the window sizes under a model,
// with BASE as the reference column.
func WindowSweep(tr *trace.Trace, model consistency.Model) ([]Column, error) {
	return traceMatrix(tr, WindowSweepSpecs(model))
}

// ReadHiddenSummary reproduces the concluding statistic of §7: the average
// fraction of read latency hidden across the applications for each window
// size under RC ("33% for window size of 16, 63% for window size of 32, and
// 81% for window size of 64" in the paper). It reads the RC window sweep's
// ReadHidden columns; the average is accumulated in application order, so
// the floating-point result is worker-count independent. Any failed cell
// fails the whole summary.
func (e *Experiment) ReadHiddenSummary() (map[int]float64, map[string]map[int]float64, error) {
	acs, err := e.WindowSweepAll()
	if err != nil {
		return nil, nil, err
	}
	perApp := make(map[string]map[int]float64, len(acs))
	avg := make(map[int]float64, len(Windows))
	for _, ac := range acs {
		row := make(map[int]float64, len(Windows))
		for _, c := range ac.Cols[1:] {
			row[c.Window] = c.ReadHidden
			avg[c.Window] += c.ReadHidden / float64(len(acs))
		}
		perApp[ac.App] = row
	}
	return avg, perApp, nil
}

// ReadMissDelays reproduces the §4.1.3 diagnostic: the distribution of
// decode-to-issue delays for read misses at window 64 with perfect branch
// prediction under RC.
func ReadMissDelays(tr *trace.Trace) (*obs.LocalHistogram, error) {
	res, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(tr), cpu.Config{
		Model:     consistency.RC,
		Window:    64,
		Predictor: bpred.Perfect{},
	})
	if err != nil {
		return nil, err
	}
	return res.ReadMissDelay, nil
}
