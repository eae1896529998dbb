// Command hidelat regenerates the tables and figures of "Hiding Memory
// Latency using Dynamic Scheduling in Shared-Memory Multiprocessors"
// (Gharachorloo, Gupta & Hennessy, ISCA 1992).
//
// Usage:
//
//	hidelat [flags] <experiment>
//
// Experiments:
//
//	table1      data reference statistics (§3.3, Table 1)
//	table2      synchronization statistics (§3.3, Table 2)
//	table3      branch behaviour (§3.3, Table 3)
//	fig3        static vs dynamic scheduling across SC/PC/RC (§4.1, Figure 3)
//	fig4        perfect prediction and ignored dependences (§4.1.3, Figure 4)
//	summary     fraction of read latency hidden per window (§7)
//	delays      read-miss issue-delay distribution (§4.1.3)
//	latency100  RC window sweep at 100-cycle miss latency (§4.2)
//	issue4      RC window sweep with 4-wide issue (§4.2)
//	wo          weak ordering window sweep (extension)
//	scpf        SC with non-binding prefetch (extension, ref [8])
//	resched     compiler load rescheduling for SS (§5/§7 future work)
//	cachegeom   cache-size ablation (trace regeneration per size)
//	contexts    multiple-hardware-contexts comparison (§5)
//	contention  finite memory bandwidth ablation (§5 extension)
//	machines    2-32 processor scaling sweep (extension)
//	distances   distance between consecutive read misses (§4.1.3)
//	ablate      store-buffer / MSHR / BTB ablations (extension)
//	analyze     critical-path cycle attribution and top-down bottlenecks
//	timeline    interval time series with phase detection per cell
//	all         everything above
//
// Flags select the problem scale (-scale small|medium|paper), the miss
// penalty (-latency), the processor count (-cpus), the traced processor
// (-tracecpu), and the applications (-apps mp3d,lu,...). -j bounds the
// worker goroutines used to fan out the independent replays of each
// experiment (0, the default, uses GOMAXPROCS); every experiment's output
// is byte-identical regardless of the worker count.
//
// Observability flags: -metrics-out writes a JSON snapshot of every counter
// and histogram the run produced; -pipe-trace-out writes a per-instruction
// pipeline trace of a representative RC-DS64 replay (Konata, or Chrome
// trace-event JSON when the path ends in .json); -progress prints a
// throughput line to stderr every second; -cpuprofile/-memprofile write
// runtime/pprof profiles.
//
// The analyze experiment replays every application with a critical-path
// collector attached and prints, per configuration, what fraction of
// execution time is attributable to each fine-grained cause (data
// dependences, read/write latency, synchronization, consistency ordering,
// buffer and MSHR structural limits, branch-misprediction refill), plus the
// distribution of each instruction's last-arriving dependence edge. The
// buckets sum exactly to the simulated execution time. -analyze-json writes
// the report as JSON; -flame-out writes a Chrome trace-event flamegraph
// (load it in chrome://tracing or Perfetto). With -serve, the attribution
// is also queryable live at /bottlenecks once the analyze step records it.
//
// The timeline experiment replays every application with an interval
// sampler attached: every 2^k simulated cycles it snapshots the stall
// breakdown, retire rate, and queue occupancies, decimating to coarser
// intervals when the fixed-size ring fills. A change-point detector over
// the stall-mix vectors segments each run into phases, and the step prints
// per-cell sparkline timelines with phase boundaries plus a per-phase
// summary table. The series are byte-identical across -j and -noskip.
// -timeline-json writes the full report (samples and phases) as JSON;
// -timeline-csv writes the samples as CSV.
//
// -serve ADDR starts a live HTTP server for the duration of the run
// (":0" picks a free port; the bound address is printed to stderr) exposing
// /metrics (Prometheus text), /metrics.json, /jobs (the experiment
// scheduler's per-job board), /progress, /timeline (interval series of
// every registered cell), /events (live timeline samples as Server-Sent
// Events), /healthz, and /debug/pprof/.
//
// -ledger PATH appends one structured JSON-Lines record per invocation:
// run id, version, options, wall time, allocator statistics, per-app
// generation cycles, per-cell replay cycles and MCPI, and a determinism
// checksum of the metrics snapshot.
//
// Incremental sweeps: -cache DIR (default $HIDELAT_CACHE) memoizes
// generated traces and per-cell replay results in a persistent
// content-addressed store, so repeated sweeps only pay for what changed —
// a warm run's stdout and ledger determinism checksum are byte-identical
// to the cold run that populated the store. -cache-off disables the store
// for one run; -cache-verify P recomputes fraction P of the hits from
// scratch and fails the run on any divergence. The store is maintained
// with
//
//	hidelat cache [-dir DIR] stats|verify|gc [-max-bytes N]|clear
//
// The diff subcommand compares two run artifacts:
//
//	hidelat diff [-threshold 0.05] [-json] OLD NEW
//
// OLD and NEW may each be a JSON-Lines run ledger (the newest record wins),
// a single ledger record, a -metrics-out snapshot, a -timeline-json report
// (compared on per-cell cycles, MCPI, and per-phase spans), or any JSON
// object with numeric leaves. All tracked metrics are cost metrics, so an increase
// beyond the threshold is a regression; diff exits non-zero when any
// tracked metric regresses, which lets CI gate on the trajectory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"dynsched"
	"dynsched/internal/apps"
	"dynsched/internal/cache"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/critpath"
	"dynsched/internal/exp"
	"dynsched/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hidelat:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "diff" {
		return runDiff(args[1:])
	}
	if len(args) > 0 && args[0] == "cache" {
		return runCacheCmd(args[1:])
	}
	start := time.Now()
	fs := flag.NewFlagSet("hidelat", flag.ContinueOnError)
	scaleName := fs.String("scale", "medium", "problem scale: small, medium, or paper")
	latency := fs.Uint("latency", 50, "cache miss penalty in cycles")
	cpus := fs.Int("cpus", 16, "processors in the multiprocessor simulation")
	traceCPU := fs.Int("tracecpu", 1, "processor whose trace is replayed")
	appList := fs.String("apps", "", "comma-separated applications (default: all five)")
	workers := fs.Int("j", 0, "worker goroutines for experiment fan-out (0 = GOMAXPROCS)")
	retries := fs.Int("retries", 0, "extra attempts a failed replay cell gets before it is marked failed")
	noskip := fs.Bool("noskip", false, "disable event-driven time skipping in the processor replays (results are identical; for diagnosis and equivalence testing)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	csvOut := fs.Bool("csv", false, "emit figure data as CSV (fig3, fig4, latency100, issue4, wo, scpf)")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot to this file")
	analyzeJSON := fs.String("analyze-json", "", "write the analyze report as JSON to this file")
	flameOut := fs.String("flame-out", "", "write the analyze attribution as a Chrome trace-event flamegraph to this file")
	timelineJSON := fs.String("timeline-json", "", "write the timeline report (samples and phases) as JSON to this file")
	timelineCSV := fs.String("timeline-csv", "", "write the timeline samples as CSV to this file")
	pipeOut := fs.String("pipe-trace-out", "", "write a pipeline trace of an RC-DS64 replay of the first app (.json = Chrome trace, else Konata)")
	progress := fs.Bool("progress", false, "print simulation throughput to stderr every second")
	serveAddr := fs.String("serve", "", "serve live /metrics, /jobs, /progress, and /debug/pprof on this address while the run executes (e.g. :8080; :0 picks a free port)")
	ledgerPath := fs.String("ledger", "", "append one JSON-Lines run record (cycles, MCPI, wall time, determinism checksum) to this file")
	cacheDir := fs.String("cache", os.Getenv("HIDELAT_CACHE"), "persistent result-cache directory: memoize generated traces and replay-cell results across runs (default $HIDELAT_CACHE)")
	cacheOff := fs.Bool("cache-off", false, "disable the result cache even when -cache or $HIDELAT_CACHE is set")
	cacheVerify := fs.Float64("cache-verify", 0, "fraction [0,1] of cell cache hits to recompute and compare; a divergence fails the cell hard")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile to this file")
	version := fs.Bool("version", false, "print the version and exit")
	fs.BoolVar(version, "v", false, "shorthand for -version")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: hidelat [flags] <experiment>\n")
		fmt.Fprintf(fs.Output(), "       hidelat diff [-threshold 0.05] [-json] OLD NEW\n")
		fmt.Fprintf(fs.Output(), "       hidelat cache [-dir DIR] stats|verify|gc [-max-bytes N]|clear\n\n")
		fmt.Fprintf(fs.Output(), "Experiments: table1 table2 table3 fig3 fig4 summary delays latency100\n")
		fmt.Fprintf(fs.Output(), "             issue4 wo scpf resched cachegeom contexts contention\n")
		fmt.Fprintf(fs.Output(), "             machines distances ablate analyze timeline all\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag parsing stops at the first positional; re-parse the remainder so
	// flags may also follow the experiment name (hidelat fig3 -csv).
	what := ""
	if fs.NArg() > 0 {
		what = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
	}
	if *version {
		fmt.Printf("hidelat %s (dynsched)\n", dynsched.Version)
		return nil
	}
	if what == "" || fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment name")
	}

	// Validate resource flags up front: a bad value should be a usage error
	// now, not a confusing failure three simulations in.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := exp.CheckMachine(*cpus, *traceCPU, set["tracecpu"], uint64(*latency)); err != nil {
		return err
	}
	switch {
	case *workers < 0:
		return fmt.Errorf("-j must be >= 0, got %d", *workers)
	case *retries < 0:
		return fmt.Errorf("-retries must be >= 0, got %d", *retries)
	case *timeout < 0:
		return fmt.Errorf("-timeout must be >= 0, got %v", *timeout)
	case *cacheVerify < 0 || *cacheVerify > 1:
		return fmt.Errorf("-cache-verify must be in [0,1], got %g", *cacheVerify)
	}
	if *cacheVerify > 0 && (*cacheDir == "" || *cacheOff) {
		return fmt.Errorf("-cache-verify requires an enabled -cache DIR")
	}

	scale, err := apps.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	var appNames []string // nil selects the paper's five
	if *appList != "" {
		if appNames, err = parseApps(*appList); err != nil {
			return err
		}
	}

	// SIGINT/SIGTERM (and -timeout) cancel the run cooperatively: the
	// simulators poll the context and unwind, partial results are printed,
	// and the ledger record is marked interrupted.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := exp.Options{
		NumCPUs:     *cpus,
		Scale:       scale,
		MissPenalty: uint32(*latency),
		TraceCPU:    *traceCPU,
		Apps:        appNames,
		Workers:     *workers,
		Retries:     *retries,
		NoTimeSkip:  *noskip,
		Ctx:         ctx,
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *metricsOut != "" || *serveAddr != "" || *ledgerPath != "" {
		metricsReg = obs.NewRegistry()
		opts.Metrics = metricsReg
	}
	if *cacheDir != "" && !*cacheOff {
		store, err := cache.Open(*cacheDir, cache.Options{Version: dynsched.Version, Metrics: metricsReg})
		if err != nil {
			return err
		}
		// Close persists the index (LRU metadata, lifetime hit/miss counters);
		// a failure costs only staleness, never correctness, since Open
		// rescans the objects directory.
		defer func() {
			if cerr := store.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "hidelat: cache index write failed: %v\n", cerr)
			}
			if st := store.Stats(); st.Hits+st.Misses > 0 {
				fmt.Fprintf(os.Stderr, "hidelat: result cache %s: %d hit(s), %d miss(es)\n", *cacheDir, st.Hits, st.Misses)
			}
		}()
		opts.Cache = store
		opts.CacheVerify = *cacheVerify
	}
	var pr *obs.Progress
	if *progress || *serveAddr != "" {
		// The live server's /progress endpoint needs a ticker even when the
		// stderr printout is off; io.Discard keeps the terminal quiet.
		out := io.Writer(io.Discard)
		if *progress {
			out = os.Stderr
		}
		pr = obs.NewProgress(out, time.Second)
		pr.Start()
		defer pr.Stop()
		opts.Progress = pr
	}
	if *serveAddr != "" {
		opts.Board = obs.NewJobBoard()
		opts.Timelines = obs.NewTimelineHub()
		srv, err := obs.StartServer(*serveAddr, obs.ServerState{
			Registry: metricsReg, Board: opts.Board, Progress: pr,
			Timelines: opts.Timelines, Version: dynsched.Version,
		})
		if err != nil {
			return err
		}
		// Drain in-flight scrapes before exiting; fall back to a hard close
		// after two seconds so shutdown can never hang the CLI.
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			srv.Shutdown(sctx)
		}()
		fmt.Fprintf(os.Stderr, "hidelat: live server on http://%s/ (metrics, jobs, progress, pprof)\n", srv.Addr)
	}
	e := exp.New(opts)
	emitCSV = *csvOut
	// writeLedger appends the run record even when the run failed: an
	// interrupted or partial sweep is marked as such rather than vanishing
	// from the run history.
	writeLedger := func(cmd string, runErr error) error {
		if *ledgerPath == "" {
			return nil
		}
		rec := obs.BuildLedgerRecord(dynsched.Version, cmd, args, map[string]any{
			"scale": *scaleName, "latency": *latency, "cpus": *cpus,
			"tracecpu": *traceCPU, "apps": *appList, "j": *workers,
		}, start, metricsReg.Snapshot())
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			rec.Interrupted = true
		}
		var pe *exp.PartialError
		if errors.As(runErr, &pe) {
			rec.FailedCells = pe.FailedLabels()
		}
		if err := obs.AppendLedger(*ledgerPath, rec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hidelat: appended run %s to ledger %s\n", rec.ID, *ledgerPath)
		return nil
	}

	steps := map[string]func(*exp.Experiment) error{
		"table1":     table1,
		"table2":     table2,
		"table3":     table3,
		"fig3":       fig3,
		"fig4":       fig4,
		"summary":    summary,
		"delays":     delays,
		"latency100": latency100,
		"issue4":     issue4,
		"wo":         wo,
		"ablate":     ablate,
		"scpf":       scpf,
		"distances":  distances,
		"resched":    reschedCmd,
		"cachegeom":  cachegeom,
		"contexts":   contexts,
		"contention": contention,
		"machines":   machines,
		"analyze":    analyzeCmd,
		"timeline":   timelineCmd,
	}
	analyzeJSONOut, flameOutPath = *analyzeJSON, *flameOut
	timelineJSONOut, timelineCSVOut = *timelineJSON, *timelineCSV
	if what != "all" {
		if _, ok := steps[what]; !ok {
			return fmt.Errorf("unknown experiment %q", what)
		}
		if what == "latency100" && opts.MissPenalty != 100 {
			opts.MissPenalty = 100
			e = exp.New(opts)
		}
	}

	// Run the experiment(s). A *PartialError degrades rather than aborts:
	// the step has already printed its partial tables, `all` continues with
	// the remaining experiments, and the combined failure is reported at
	// exit. Anything else — including cancellation — stops the dispatch.
	stepErr := func() error {
		if what != "all" {
			stepName = what
			return steps[what](e)
		}
		var partial error
		for _, name := range []string{"table1", "table2", "table3", "fig3", "fig4",
			"summary", "delays", "distances", "issue4", "wo", "scpf", "resched",
			"cachegeom", "contexts", "contention", "machines", "ablate", "analyze",
			"timeline"} {
			stepName = name
			if err := steps[name](e); err != nil {
				var pe *exp.PartialError
				if !errors.As(err, &pe) {
					return err
				}
				partial = err
			}
			fmt.Println()
		}
		// latency100 needs its own traces; run it with a fresh harness.
		opts100 := opts
		opts100.MissPenalty = 100
		stepName = "latency100"
		if err := latency100(exp.New(opts100)); err != nil {
			var pe *exp.PartialError
			if !errors.As(err, &pe) {
				return err
			}
			partial = err
		}
		return partial
	}()

	// Write the observability artifacts unless the run was canceled — the
	// writers are atomic, so a partial sweep still leaves valid files — and
	// always record the run in the ledger, marked interrupted or partial.
	interrupted := errors.Is(stepErr, context.Canceled) || errors.Is(stepErr, context.DeadlineExceeded)
	var pe *exp.PartialError
	if !interrupted && (stepErr == nil || errors.As(stepErr, &pe)) {
		if err := finishObs(e, *metricsOut, *pipeOut, *memProfile); err != nil && stepErr == nil {
			stepErr = err
		}
	}
	if err := writeLedger(what, stepErr); err != nil && stepErr == nil {
		stepErr = err
	}
	return stepErr
}

// parseApps splits the -apps list and rejects unknown, empty and duplicate
// names before anything runs: an unknown name would otherwise fail only
// after every valid application had been simulated, and a duplicate would
// print its application twice.
func parseApps(list string) ([]string, error) {
	known := apps.ExtendedNames()
	names := strings.Split(list, ",")
	for i, name := range names {
		switch {
		case name == "":
			return nil, fmt.Errorf("-apps %q: empty application name", list)
		case !slices.Contains(known, name):
			return nil, fmt.Errorf("-apps: unknown application %q (have %s)", name, strings.Join(known, ","))
		case slices.Contains(names[:i], name):
			return nil, fmt.Errorf("-apps: application %q listed twice", name)
		}
	}
	return names, nil
}

// runCacheCmd implements `hidelat cache <op>`: maintenance of the
// persistent result cache. stats summarizes the store, verify re-checks
// every entry end to end (removing corrupt ones and failing the command so
// CI can gate on it), gc evicts least-recently-used entries down to a byte
// budget, and clear empties the store.
func runCacheCmd(args []string) error {
	fs := flag.NewFlagSet("hidelat cache", flag.ContinueOnError)
	dir := fs.String("dir", os.Getenv("HIDELAT_CACHE"), "cache directory (default $HIDELAT_CACHE)")
	maxBytes := fs.Int64("max-bytes", 0, "gc: evict least-recently-used entries until the store holds at most this many bytes")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: hidelat cache [-dir DIR] stats|verify|gc [-max-bytes N]|clear\n\n"+
			"Maintains the persistent result cache used by -cache DIR:\n"+
			"  stats   entry count, bytes, and lifetime hit/miss counters\n"+
			"  verify  re-read every entry (magic, lengths, CRC, key); corrupt\n"+
			"          entries are removed and the command exits non-zero\n"+
			"  gc      evict least-recently-used entries down to -max-bytes\n"+
			"  clear   remove every entry and the index\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	op := ""
	if fs.NArg() > 0 {
		op = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
	}
	if op == "" || fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("cache: expected exactly one operation (stats, verify, gc, clear)")
	}
	if *dir == "" {
		return fmt.Errorf("cache: no directory: pass -dir or set $HIDELAT_CACHE")
	}
	s, err := cache.Open(*dir, cache.Options{Version: dynsched.Version})
	if err != nil {
		return err
	}
	switch op {
	case "stats":
		st := s.Stats()
		fmt.Printf("cache %s: %d entries, %d bytes\n", st.Dir, st.Entries, st.Bytes)
		fmt.Printf("lifetime: %d hit(s), %d miss(es)\n", st.LifetimeHits, st.LifetimeMisses)
		return nil
	case "verify":
		checked, corrupt, err := s.Verify()
		fmt.Printf("verified %d entries, %d corrupt (removed)\n", checked, corrupt)
		if err != nil {
			return err
		}
		if corrupt > 0 {
			return fmt.Errorf("cache: %d corrupt entries found (writes are atomic, so this indicates external damage)", corrupt)
		}
		return nil
	case "gc":
		if *maxBytes <= 0 {
			return fmt.Errorf("cache gc: -max-bytes must be > 0 (use clear to empty the store)")
		}
		removed, freed, err := s.GC(*maxBytes)
		fmt.Printf("evicted %d entries, freed %d bytes\n", removed, freed)
		return err
	case "clear":
		if err := s.Clear(); err != nil {
			return err
		}
		fmt.Printf("cleared cache %s\n", *dir)
		return nil
	}
	fs.Usage()
	return fmt.Errorf("cache: unknown operation %q", op)
}

// runDiff implements `hidelat diff OLD NEW`: load the tracked metrics of two
// run artifacts, compare them, and exit non-zero when anything regressed.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("hidelat diff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.05, "relative change beyond which a metric counts as regressed (0.05 = 5%)")
	jsonOut := fs.Bool("json", false, "emit the diff report as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: hidelat diff [flags] OLD NEW\n\n"+
			"Compares the tracked metrics of two run artifacts: JSON-Lines run\n"+
			"ledgers (the newest record wins), single ledger records, -metrics-out\n"+
			"snapshots, or any JSON object with numeric leaves. Exits non-zero when\n"+
			"a tracked metric regressed beyond the threshold.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("diff: expected exactly two run artifacts, got %d", fs.NArg())
	}
	oldM, oldKind, oldFNV, err := obs.LoadMetricsFile(fs.Arg(0))
	if err != nil {
		return err
	}
	newM, newKind, newFNV, err := obs.LoadMetricsFile(fs.Arg(1))
	if err != nil {
		return err
	}
	rep := obs.DiffMetrics(oldM, newM, obs.DiffOptions{Threshold: *threshold})
	rep.OldFNV, rep.NewFNV = oldFNV, newFNV
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("old: %s (%s)\nnew: %s (%s)\n", fs.Arg(0), oldKind, fs.Arg(1), newKind)
		fmt.Print(rep.Format())
	}
	if rep.Regressions > 0 {
		return fmt.Errorf("diff: %d tracked metric(s) regressed beyond ±%.3g%%", rep.Regressions, 100**threshold)
	}
	return nil
}

// finishObs writes the observability artifacts requested on the command
// line: the pipeline trace of a representative replay, the metrics
// snapshot, and the heap profile.
func finishObs(e *exp.Experiment, metricsOut, pipeOut, memProfile string) error {
	if pipeOut != "" {
		app := e.Apps()[0]
		run, err := e.Run(app)
		if err != nil {
			return err
		}
		tracer := obs.NewPipeTracer(0)
		cfg := cpu.Config{Model: consistency.RC, Window: 64, Pipe: tracer}
		cfg.Metrics, cfg.MetricsPrefix = metricsReg, "cpu."+app+".RC-DS64."
		if _, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(run.Trace), cfg); err != nil {
			return err
		}
		if err := obs.WritePipeTraceFile(tracer, pipeOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hidelat: wrote pipeline trace of %s RC-DS64 (%d instructions) to %s\n",
			app, tracer.Len(), pipeOut)
	}
	if metricsOut != "" {
		if err := obs.WriteMetricsFile(metricsReg, metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hidelat: wrote metrics snapshot to %s\n", metricsOut)
	}
	if memProfile != "" {
		return obs.WriteHeapProfile(memProfile)
	}
	return nil
}

// emitCSV switches the column-based experiments to CSV output.
var emitCSV bool

// analyzeJSONOut and flameOutPath hold the -analyze-json and -flame-out
// destinations for the analyze step.
var analyzeJSONOut, flameOutPath string

// analyzeCmd runs the critical-path attribution sweep and prints the
// top-down report. Like the figure steps, a *PartialError still prints the
// healthy cells and writes the artifacts before being reported at exit.
func analyzeCmd(e *exp.Experiment) error {
	rep, err := e.AnalyzeAll()
	if rep == nil {
		return err
	}
	fmt.Print(rep.Format())
	exp.RecordAnalyze(metricsReg, rep)
	if analyzeJSONOut != "" {
		werr := obs.WriteFileAtomic(analyzeJSONOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "hidelat: wrote analyze report to %s\n", analyzeJSONOut)
	}
	if flameOutPath != "" {
		werr := obs.WriteFileAtomic(flameOutPath, func(w io.Writer) error {
			return critpath.WriteFlame(w, rep.FlameCells())
		})
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "hidelat: wrote attribution flamegraph to %s\n", flameOutPath)
	}
	return err
}

// timelineJSONOut and timelineCSVOut hold the -timeline-json and
// -timeline-csv paths for timelineCmd, set by run after flag parsing.
var timelineJSONOut, timelineCSVOut string

func timelineCmd(e *exp.Experiment) error {
	rep, err := e.TimelineAll()
	if rep == nil {
		return err
	}
	fmt.Print(rep.Format())
	exp.RecordTimeline(metricsReg, rep)
	if timelineJSONOut != "" {
		werr := obs.WriteFileAtomic(timelineJSONOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "hidelat: wrote timeline report to %s\n", timelineJSONOut)
	}
	if timelineCSVOut != "" {
		werr := obs.WriteFileAtomic(timelineCSVOut, func(w io.Writer) error {
			_, werr := io.WriteString(w, rep.CSV())
			return werr
		})
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "hidelat: wrote timeline samples to %s\n", timelineCSVOut)
	}
	return err
}

// metricsReg collects every experiment's metrics when -metrics-out is set.
var metricsReg *obs.Registry

// stepName is the experiment currently printing (namespaces its metrics).
var stepName string

func printColumns(title string, acs []exp.AppColumns) {
	for _, ac := range acs {
		exp.RecordColumns(metricsReg, stepName, ac.App, ac.Cols)
	}
	if emitCSV {
		fmt.Print(exp.ColumnsCSV(acs))
		return
	}
	fmt.Print(exp.FormatAppColumns(title, acs))
}

func table1(e *exp.Experiment) error {
	rows, err := e.Table1()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatTable1(rows))
	return nil
}

func table2(e *exp.Experiment) error {
	rows, err := e.Table2()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatTable2(rows))
	return nil
}

func table3(e *exp.Experiment) error {
	rows, err := e.Table3()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatTable3(rows))
	return nil
}

func fig3(e *exp.Experiment) error {
	acs, err := e.Figure3All()
	if acs != nil {
		printColumns("Figure 3: static vs dynamic scheduling under SC/PC/RC (normalized to BASE)", acs)
	}
	return err
}

func fig4(e *exp.Experiment) error {
	acs, err := e.Figure4All()
	if acs != nil {
		printColumns("Figure 4: perfect branch prediction (PBP) and ignored data dependences (ND) under RC", acs)
	}
	return err
}

func summary(e *exp.Experiment) error {
	avg, perApp, err := e.ReadHiddenSummary()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatSummary(avg, perApp))
	return nil
}

func delays(e *exp.Experiment) error {
	s, err := e.DelayReport()
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func latency100(e *exp.Experiment) error {
	acs, err := e.WindowSweepAll()
	if acs != nil {
		printColumns("Latency 100: RC window sweep with a 100-cycle miss penalty (§4.2)", acs)
	}
	return err
}

func issue4(e *exp.Experiment) error {
	acs, err := e.Issue4All()
	if acs != nil {
		printColumns("Multiple issue: RC window sweep at 4-wide issue (§4.2)", acs)
	}
	return err
}

func wo(e *exp.Experiment) error {
	acs, err := e.WOAll()
	if acs != nil {
		printColumns("Weak ordering: DS window sweep under WO (extension)", acs)
	}
	return err
}

func scpf(e *exp.Experiment) error {
	acs, err := e.SCPrefetchAll()
	if acs != nil {
		printColumns("SC with non-binding prefetch: DS window sweep (extension, ref [8] / §6)", acs)
	}
	return err
}

func reschedCmd(e *exp.Experiment) error {
	rows, err := e.ReschedAll()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatResched(rows))
	return nil
}

func contexts(e *exp.Experiment) error {
	for _, app := range e.Apps() {
		for _, penalty := range []int{1, 16} {
			rows, err := e.MultipleContexts(app, penalty)
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatMC(rows))
		}
		fmt.Println()
	}
	return nil
}

func contention(e *exp.Experiment) error {
	for _, app := range e.Apps() {
		rows, err := exp.Contention(app, e.Options())
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatContention(app, rows))
	}
	return nil
}

func machines(e *exp.Experiment) error {
	for _, app := range e.Apps() {
		rows, err := exp.MachineSweep(app, e.Options())
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatMachines(app, rows))
	}
	return nil
}

func cachegeom(e *exp.Experiment) error {
	for _, app := range e.Apps() {
		rows, err := exp.AblationCacheSize(app, e.Options())
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatCacheGeom(app, rows))
	}
	return nil
}

func distances(e *exp.Experiment) error {
	s, err := e.MissDistanceReport()
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func ablate(e *exp.Experiment) error {
	for _, app := range e.Apps() {
		sb, err := e.AblationStoreBuffer(app)
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatColumns(fmt.Sprintf("Store-buffer depth ablation, %s (RC, window 64)", strings.ToUpper(app)), sb))
		ms, err := e.AblationMSHR(app)
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatColumns(fmt.Sprintf("MSHR ablation, %s (RC, window 64)", strings.ToUpper(app)), ms))
		bt, err := e.AblationBTB(app)
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatColumns(fmt.Sprintf("BTB size ablation, %s (RC, window 128)", strings.ToUpper(app)), bt))
		fmt.Println()
	}
	return nil
}
