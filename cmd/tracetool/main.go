// Command tracetool generates, inspects, and replays annotated instruction
// traces. Traces are the expensive artifact of the methodology (they require
// the full 16-processor simulation), so saving them to disk and replaying
// them repeatedly mirrors how the paper's experiments were actually run.
//
// Usage:
//
//	tracetool gen    -app lu -scale paper -o lu.trace     generate and save
//	tracetool info   lu.trace                             tables 1-3 for one trace
//	tracetool replay -arch DS -model RC -window 64 lu.trace
//
// replay prints the execution-time breakdown of the chosen processor model.
// It streams the trace through a trace.Cursor — one CRC-verified chunk
// resident at a time — so multi-gigabyte traces replay in constant memory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dynsched"
	"dynsched/internal/apps"
	"dynsched/internal/bpred"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/exp"
	"dynsched/internal/isa"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func usage() string {
	return `Usage: tracetool <command> [flags] [file]

Commands:
  gen      generate a trace on the simulated multiprocessor and save it
  info     print reference, synchronization, and branch statistics
  replay   replay a trace through a processor model (streaming)

Run "tracetool <command> -h" for the command's flags.`
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("%s", usage())
	}
	switch args[0] {
	case "gen":
		return gen(args[1:])
	case "info":
		return info(args[1:])
	case "replay":
		return replay(args[1:])
	case "-version", "-v", "version":
		fmt.Printf("tracetool %s (dynsched)\n", dynsched.Version)
		return nil
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage())
}

func gen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	app := fs.String("app", "lu", "application to trace")
	scaleName := fs.String("scale", "medium", "problem scale")
	latency := fs.Uint("latency", 50, "miss penalty in cycles")
	cpus := fs.Int("cpus", 16, "number of processors")
	traceCPU := fs.Int("tracecpu", 1, "processor to trace")
	out := fs.String("o", "", "output file (required)")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot of the simulation to this file")
	progress := fs.Bool("progress", false, "print simulation throughput to stderr every second")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -o output file is required")
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := exp.CheckMachine(*cpus, *traceCPU, set["tracecpu"], uint64(*latency)); err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	scale, err := apps.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	opts := exp.Options{
		NumCPUs: *cpus, Scale: scale, MissPenalty: uint32(*latency),
		TraceCPU: *traceCPU, Apps: []string{*app},
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}
	if *progress {
		pr := obs.NewProgress(os.Stderr, time.Second)
		pr.Start()
		defer pr.Stop()
		opts.Progress = pr
	}
	e := exp.New(opts)
	run, err := e.Run(*app)
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(reg, *metricsOut); err != nil {
			return err
		}
	}
	// Write through a temp file + rename so a crash mid-write can never
	// leave a torn trace at the destination (the CRC footer would catch it,
	// but an old intact file is strictly better than a rejected one).
	var n int64
	err = obs.WriteFileAtomic(*out, func(w io.Writer) error {
		var werr error
		n, werr = run.Trace.WriteTo(w)
		return werr
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d instructions, %d bytes\n", *out, run.Trace.Len(), n)
	return nil
}

func load(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadTrace(f)
}

// openCursor opens a streaming cursor over the trace at path. The caller
// must invoke close when done with the cursor.
func openCursor(path string) (c *trace.Cursor, close func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	c, err = trace.NewCursor(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return c, f.Close, nil
}

// statFile reports the container-level layout (chunk CRC status, encoded
// density) of a serialized trace.
func statFile(path string) (trace.FileStat, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.FileStat{}, err
	}
	defer f.Close()
	return trace.Stat(f)
}

func info(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: tracetool info <file>")
	}
	tr, err := load(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("app=%s cpu=%d/%d missPenalty=%d instructions=%d\n",
		tr.App, tr.CPU, tr.NumCPUs, tr.MissPenalty, tr.Len())
	if addr, err := tr.ContentAddr(); err == nil {
		// The FNV-64a over the serialized trace — the identity the result
		// cache and the distributed coordinator key replays by.
		fmt.Printf("content address %s (fnv64a of serialized trace)\n", addr)
	}
	if st, err := statFile(args[0]); err == nil {
		fmt.Println(st.Format())
	} else {
		return err
	}
	d := tr.Data()
	fmt.Printf("reads   %8d (%.1f/1000)   read misses  %7d (%.1f/1000)\n",
		d.Reads, d.Per1000(d.Reads), d.ReadMisses, d.Per1000(d.ReadMisses))
	fmt.Printf("writes  %8d (%.1f/1000)   write misses %7d (%.1f/1000)\n",
		d.Writes, d.Per1000(d.Writes), d.WriteMisses, d.Per1000(d.WriteMisses))
	misses := d.ReadMisses + d.WriteMisses
	accesses := d.Reads + d.Writes
	if accesses > 0 {
		fmt.Printf("miss rate %.2f%% (%d misses / %d accesses)\n",
			100*float64(misses)/float64(accesses), misses, accesses)
	}
	s := tr.Sync()
	fmt.Printf("locks %d  unlocks %d  waitEv %d  setEv %d  barriers %d\n",
		s.Locks, s.Unlocks, s.WaitEvents, s.SetEvents, s.Barriers)
	var syncWait, syncTransfer uint64
	for i := range tr.Events {
		e := &tr.Events[i]
		if isa.Classify(e.Instr.Op) == isa.ClassSync {
			syncWait += uint64(e.Wait)
			syncTransfer += uint64(e.Latency)
		}
	}
	fmt.Printf("sync cycles: wait (W) %d, transfer (T) %d\n", syncWait, syncTransfer)
	b := tr.Branches(bpred.NewPaperBTB())
	fmt.Printf("branches %.1f%% of instructions, %.1f%% predicted, mispredict every %.0f instructions\n",
		b.PctInstructions, b.PctCorrect, b.AvgMispredictDistance)
	fmt.Printf("read-miss distances: %s\n", tr.ReadMissDistances())
	rd, wr, sy := tr.LatencyBound()
	fmt.Printf("latency carried: read %d, write %d, sync %d cycles\n", rd, wr, sy)
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	archName := fs.String("arch", "DS", "processor model: BASE, SSBR, SS, DS")
	modelName := fs.String("model", "RC", "consistency model: SC, PC, WO, RC")
	window := fs.Int("window", 64, "DS lookahead window size")
	width := fs.Int("width", 1, "decode/issue width")
	perfect := fs.Bool("perfect", false, "use the perfect branch predictor")
	noDeps := fs.Bool("nodeps", false, "ignore register data dependences")
	prefetch := fs.Bool("prefetch", false, "enable non-binding prefetch")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot of the replay to this file")
	pipeOut := fs.String("pipe-trace-out", "", "write the replay's pipeline trace (.json = Chrome trace, else Konata)")
	progress := fs.Bool("progress", false, "print replay throughput to stderr every second")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracetool replay [flags] <file>")
	}
	if *window < 1 || *window > cpu.MaxWindow {
		return fmt.Errorf("replay: -window must be in [1, %d], got %d", cpu.MaxWindow, *window)
	}
	if *width < 1 {
		return fmt.Errorf("replay: -width must be >= 1, got %d", *width)
	}
	arch, err := cpu.ParseArch(*archName)
	if err != nil {
		return err
	}
	model, err := consistency.ParseModel(*modelName)
	if err != nil {
		return err
	}
	if arch == cpu.ArchBase && *pipeOut != "" {
		return fmt.Errorf("replay: -pipe-trace-out needs a pipelined model, and -arch BASE has no pipeline")
	}
	path := fs.Arg(0)
	// The replay streams the file through a cursor; only a DS window beyond
	// the cursor's pointer-retention lookback needs the whole trace in
	// memory, and falls back to the materializing reader.
	var (
		src   cpu.Source
		app   string
		count int
	)
	if arch == cpu.ArchDS && *window > trace.CursorLookback {
		tr, err := load(path)
		if err != nil {
			return err
		}
		src, app, count = cpu.TraceSource(tr), tr.App, tr.Len()
	} else {
		cur, closeCur, err := openCursor(path)
		if err != nil {
			return err
		}
		defer closeCur()
		src, app, count = cpu.CursorSource(cur), cur.Meta().App, cur.Len()
	}
	cfg := cpu.Config{
		Model: model, Window: *window, IssueWidth: *width,
		IgnoreDataDeps: *noDeps, Prefetch: *prefetch,
	}
	if *perfect {
		cfg.Predictor = bpred.Perfect{}
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
		cfg.MetricsPrefix = fmt.Sprintf("cpu.%s.%s-%s%d.", app, model, arch, *window)
	}
	var tracer *obs.PipeTracer
	if *pipeOut != "" {
		tracer = obs.NewPipeTracer(0)
		cfg.Pipe = tracer
	}
	if *progress {
		pr := obs.NewProgress(os.Stderr, time.Second)
		pr.Start()
		defer pr.Stop()
		lane := pr.Lane(app)
		lane.SetTotal(uint64(count))
		cfg.Progress = lane
	}
	res, err := cpu.Replay(arch, src, cfg)
	if err != nil {
		return err
	}
	if *pipeOut != "" {
		if err := obs.WritePipeTraceFile(tracer, *pipeOut); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(reg, *metricsOut); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			return err
		}
	}
	// Second streaming pass for the BASE reference the normalization needs.
	bc, closeBase, err := openCursor(path)
	if err != nil {
		return err
	}
	defer closeBase()
	base, err := cpu.Replay(cpu.ArchBase, cpu.CursorSource(bc), cpu.Config{})
	if err != nil {
		return err
	}
	b := res.Breakdown
	fmt.Printf("%s under %s (window %d, width %d): %v\n", arch, model, *window, *width, b)
	fmt.Printf("normalized to BASE: %.1f%%   CPI: %.2f   mispredicts: %d   prefetches: %d\n",
		100*float64(b.Total())/float64(base.Breakdown.Total()), res.CPI(),
		res.Mispredicts, res.Prefetches)
	if base.Breakdown.Read > 0 {
		fmt.Printf("read latency hidden: %.0f%%\n", 100*(1-float64(b.Read)/float64(base.Breakdown.Read)))
	}
	return nil
}
