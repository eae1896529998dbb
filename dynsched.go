// Package dynsched reproduces "Hiding Memory Latency using Dynamic
// Scheduling in Shared-Memory Multiprocessors" (Kourosh Gharachorloo, Anoop
// Gupta, and John Hennessy, ISCA 1992).
//
// The paper studies whether dynamically scheduled (out-of-order) processors
// can exploit the memory-access overlap permitted by relaxed consistency
// models — processor consistency, weak ordering, and release consistency —
// to hide the latency of reads in a shared-memory multiprocessor. This
// package is the stable entry point over the full simulation stack:
//
//   - a 16-processor execution-driven multiprocessor simulation (the
//     equivalent of the paper's Tango Lite environment) with coherent
//     64 KB caches and a fixed miss penalty, producing annotated
//     per-processor instruction traces;
//   - the paper's five benchmark applications (MP3D, LU, PTHOR, LOCUS,
//     OCEAN) written in a small virtual RISC ISA;
//   - four trace-driven processor timing models — BASE, SSBR, SS, and the
//     Johnson-style dynamically scheduled DS processor — evaluated under
//     the SC, PC, WO, and RC consistency models;
//   - the experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
//	run, err := dynsched.GenerateTrace("lu", dynsched.TraceOptions{})
//	if err != nil { ... }
//	base := dynsched.RunProcessor(run.Trace, dynsched.ProcessorConfig{Arch: dynsched.ArchBase})
//	ds, _ := dynsched.Run(run.Trace, dynsched.ProcessorConfig{
//		Arch: dynsched.ArchDS, Model: dynsched.RC, Window: 64,
//	})
//	fmt.Printf("read stall: BASE %d cycles, DS-64 %d cycles\n",
//		base.Breakdown.Read, ds.Breakdown.Read)
//
// Lower-level building blocks (the ISA, the assembler, the coherent cache
// model) live in internal packages; the examples directory shows how the
// public API composes them.
package dynsched

import (
	"context"
	"fmt"
	"io"
	"time"

	"dynsched/internal/apps"
	"dynsched/internal/bpred"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/exp"
	"dynsched/internal/faultinject"
	"dynsched/internal/mem"
	"dynsched/internal/obs"
	"dynsched/internal/tango"
	"dynsched/internal/trace"
	"dynsched/internal/vm"
)

// Version identifies the dynsched build; the command-line tools report it
// via their -version flags.
const Version = "0.10.0"

// Consistency models (§2.1 of the paper).
const (
	SC = consistency.SC // sequential consistency
	PC = consistency.PC // processor consistency
	WO = consistency.WO // weak ordering
	RC = consistency.RC // release consistency
)

// Model is a memory consistency model.
type Model = consistency.Model

// Arch selects a processor timing model (§4.1).
type Arch = cpu.Arch

// The four processor architectures of Figure 3.
const (
	ArchBase = cpu.ArchBase // fully serial in-order execution
	ArchSSBR = cpu.ArchSSBR // static scheduling, blocking reads, write buffer
	ArchSS   = cpu.ArchSS   // static scheduling, non-blocking reads
	ArchDS   = cpu.ArchDS   // dynamically scheduled (reorder buffer, renaming, BTB)
)

// Breakdown is an execution-time decomposition in cycles (Figure 3's bar
// sections plus explicit branch/other buckets).
type Breakdown = cpu.Breakdown

// Result is the outcome of replaying a trace through a processor model.
type Result = cpu.Result

// Trace is an annotated dynamic instruction trace of one processor.
type Trace = trace.Trace

// Scales for the benchmark problem sizes.
const (
	ScaleSmall  = apps.ScaleSmall  // unit-test sized
	ScaleMedium = apps.ScaleMedium // default experiment size
	ScalePaper  = apps.ScalePaper  // the paper's problem sizes
)

// Scale selects benchmark problem sizes.
type Scale = apps.Scale

// Apps returns the five benchmark application names in the paper's order.
func Apps() []string { return apps.Names() }

// TraceOptions configures trace generation on the simulated multiprocessor.
// The zero value reproduces the paper's machine: 16 processors, 64 KB
// direct-mapped write-back caches with 16-byte lines, invalidation-based
// coherence, a 50-cycle miss penalty, and tracing of processor 1.
type TraceOptions struct {
	NumCPUs     int
	Scale       Scale
	MissPenalty uint32
	TraceCPU    int

	// Observe attaches optional instrumentation to the simulation.
	Observe Observe

	// Ctx cancels the simulation cooperatively; nil never cancels.
	Ctx context.Context
	// MaxCycles kills the simulation with a *MachineError once simulated
	// time passes this many cycles (0 = unbounded) — a livelock backstop
	// with a machine-state dump for diagnosis.
	MaxCycles uint64
}

// Metrics is a registry of named counters, gauges, and histograms that the
// simulators publish into when attached via Observe. It is safe for
// concurrent use and exports one JSON snapshot via WriteJSON.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of a Metrics registry.
type MetricsSnapshot = obs.Snapshot

// PipeTracer records per-instruction pipeline events (decode, issue,
// complete, retire cycles) into a bounded ring buffer, exportable as a
// Konata log (WriteKonata) or Chrome trace-event JSON (WriteChromeTrace).
type PipeTracer = obs.PipeTracer

// Progress is a background ticker printing instruction and simulated-cycle
// throughput while a simulation runs. Concurrent simulations each report
// through their own labelled lane (Progress.Lane), so interleaved runs get
// side-by-side rows instead of clobbering one shared counter.
type Progress = obs.Progress

// JobBoard is the live queued/running/done board of experiment-scheduler
// jobs, served as JSON by the live server's /jobs endpoint.
type JobBoard = obs.JobBoard

// ServerState bundles the instrumentation a live observability server
// exposes; Server is the server itself (see StartServer).
type (
	ServerState = obs.ServerState
	Server      = obs.Server
)

// NewJobBoard creates an empty job board.
func NewJobBoard() *JobBoard { return obs.NewJobBoard() }

// StartServer starts the live observability HTTP server on addr (":0"
// selects an ephemeral port; Server.Addr reports the bound address). It
// serves /metrics (Prometheus text), /metrics.json, /jobs, /progress,
// /healthz, and /debug/pprof/.
func StartServer(addr string, st ServerState) (*Server, error) {
	return obs.StartServer(addr, st)
}

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewPipeTracer creates a pipeline tracer keeping the last capacity
// instructions (0 = a 65536-entry default).
func NewPipeTracer(capacity int) *PipeTracer { return obs.NewPipeTracer(capacity) }

// NewProgress creates a progress ticker writing to w every interval
// (0 = every second). Call Start to launch it and Stop for a final summary.
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	return obs.NewProgress(w, interval)
}

// Observe bundles the optional instrumentation sinks accepted by
// GenerateTrace and Run. The zero value disables all instrumentation; every
// field may be set independently.
type Observe struct {
	// Metrics receives the run's counters and histograms.
	Metrics *Metrics
	// MetricsPrefix namespaces this run's metric names (e.g. "cpu.lu.").
	MetricsPrefix string
	// Pipe records per-instruction pipeline events (processor replays only).
	Pipe *PipeTracer
	// Progress receives periodic instruction/cycle counts.
	Progress *Progress
}

// TraceRun couples a generated trace with multiprocessor-side statistics.
type TraceRun struct {
	Trace      *Trace
	CacheStats []mem.Stats
	CPUStats   []tango.CPUStats
}

// GenerateTrace builds the named application and runs it on the simulated
// multiprocessor, returning the traced processor's annotated instruction
// stream. The application's result check is executed before returning, so a
// returned trace always comes from a functionally correct run.
func GenerateTrace(app string, opts TraceOptions) (*TraceRun, error) {
	if opts.NumCPUs == 0 {
		opts.NumCPUs = 16
	}
	if opts.MissPenalty == 0 {
		opts.MissPenalty = 50
	}
	if opts.TraceCPU == 0 {
		opts.TraceCPU = 1 % opts.NumCPUs
	}
	a, err := apps.Build(app, opts.NumCPUs, opts.Scale)
	if err != nil {
		return nil, err
	}
	lane := opts.Observe.Progress.Lane(app)
	defer lane.Done()
	cfg := tango.Config{
		NumCPUs: opts.NumCPUs, TraceCPU: opts.TraceCPU, Mem: mem.DefaultConfig(),
		Metrics: opts.Observe.Metrics, MetricsPrefix: opts.Observe.MetricsPrefix,
		Progress: lane, Ctx: opts.Ctx, MaxCycles: opts.MaxCycles,
	}
	cfg.Mem.MissPenalty = opts.MissPenalty
	var m *vm.PagedMem
	res, err := tango.Run(a.Progs, func(pm *vm.PagedMem) {
		m = pm
		a.Init(pm)
	}, cfg)
	if err != nil {
		return nil, err
	}
	if a.Check != nil {
		if err := a.Check(m); err != nil {
			return nil, fmt.Errorf("dynsched: %s result check failed: %w", app, err)
		}
	}
	if err := res.Trace.Validate(); err != nil {
		return nil, err
	}
	return &TraceRun{Trace: res.Trace, CacheStats: res.CacheStats, CPUStats: res.CPUStats}, nil
}

// ProcessorConfig selects a processor architecture and its parameters.
type ProcessorConfig struct {
	Arch  Arch
	Model Model

	// Window is the DS lookahead window size (default 64).
	Window int
	// IssueWidth is the decode/issue rate per cycle (default 1; §4.2 uses 4).
	IssueWidth int
	// PerfectBranches uses the oracle predictor of Figure 4.
	PerfectBranches bool
	// IgnoreDataDeps removes register dependences (Figure 4, right half).
	IgnoreDataDeps bool
	// StoreBufDepth, WriteBufDepth, ReadBufDepth, and MSHRs override the
	// default buffer sizes (16, 16, 16, unlimited).
	StoreBufDepth, WriteBufDepth, ReadBufDepth, MSHRs int

	// Observe attaches optional instrumentation to the replay.
	Observe Observe

	// Ctx cancels the replay cooperatively; nil never cancels.
	Ctx context.Context
	// WatchdogBudget overrides the no-forward-progress cycle budget after
	// which a stalled replay is killed with a *WatchdogError (0 = the
	// generous cpu.DefaultWatchdogBudget).
	WatchdogBudget uint64
	// NoTimeSkip forces pure cycle-by-cycle stepping, disabling the
	// event-driven time-skip optimization. The replay is slower but
	// produces byte-identical results; see cpu.Config.NoTimeSkip.
	NoTimeSkip bool
}

// Run replays tr through the configured processor model.
func Run(tr *Trace, pc ProcessorConfig) (Result, error) {
	arch := pc.Arch
	if arch == "" {
		arch = ArchBase
	}
	lane := pc.Observe.Progress.Lane(string(arch))
	defer lane.Done()
	cfg := cpu.Config{
		Model:          pc.Model,
		Window:         pc.Window,
		IssueWidth:     pc.IssueWidth,
		IgnoreDataDeps: pc.IgnoreDataDeps,
		StoreBufDepth:  pc.StoreBufDepth,
		WriteBufDepth:  pc.WriteBufDepth,
		ReadBufDepth:   pc.ReadBufDepth,
		MSHRs:          pc.MSHRs,
		Metrics:        pc.Observe.Metrics,
		MetricsPrefix:  pc.Observe.MetricsPrefix,
		Pipe:           pc.Observe.Pipe,
		Progress:       lane,
		Ctx:            pc.Ctx,
		WatchdogBudget: pc.WatchdogBudget,
		NoTimeSkip:     pc.NoTimeSkip,
	}
	if pc.PerfectBranches {
		cfg.Predictor = bpred.Perfect{}
	}
	return cpu.Replay(arch, cpu.TraceSource(tr), cfg)
}

// RunProcessor is Run for configurations that cannot fail (BASE); it panics
// on configuration errors, which a literal-configured call never produces.
func RunProcessor(tr *Trace, pc ProcessorConfig) Result {
	r, err := Run(tr, pc)
	if err != nil {
		panic(err)
	}
	return r
}

// Experiment exposes the full table/figure harness. Trace generation and
// the independent replays of every figure, table, and sweep fan out across
// a bounded worker pool (ExperimentOptions.Workers; 0 = GOMAXPROCS), and
// results are collected in input order, so the output is byte-identical
// regardless of the worker count.
type Experiment = exp.Experiment

// ExperimentOptions configures the harness, including the Workers bound on
// the parallel experiment scheduler.
type ExperimentOptions = exp.Options

// NewExperiment creates a table/figure harness; see the exp package for the
// per-table accessors (Table1, Figure3All, ReadHiddenSummary, ...).
func NewExperiment(opts ExperimentOptions) *Experiment { return exp.New(opts) }

// DefaultExperimentOptions returns the paper's main configuration.
func DefaultExperimentOptions() ExperimentOptions { return exp.DefaultOptions() }

// Structured failure types. Every sweep degrades rather than aborts: a
// failing or panicking cell is retried (ExperimentOptions.Retries), then
// recorded as a *CellError inside the *PartialError returned alongside the
// surviving columns. The simulators convert livelocks into diagnosable
// errors — *WatchdogError from a replay that stops retiring instructions,
// *MachineError from a deadlocked, runaway, or cycle-budget-exceeded
// multiprocessor simulation — both carrying a state dump and marked
// permanent so they are never retried. All unwrap with errors.As.
type (
	CellError     = exp.CellError
	PartialError  = exp.PartialError
	WatchdogError = cpu.WatchdogError
	MachineError  = tango.MachineError
)

// FaultInjector arms deterministic faults (errors, panics, delays) at named
// sites inside the harness — the hook behind ExperimentOptions.Faults, used
// by the robustness tests and the fault-injection CI job.
type FaultInjector = faultinject.Injector

// Fault configures one injected failure; NewFaultInjector creates an empty
// (disarmed) injector.
type Fault = faultinject.Fault

// NewFaultInjector creates an empty fault injector.
func NewFaultInjector() *FaultInjector { return faultinject.New() }
