// Package cpu implements the four processor timing models of §4.1 of the
// paper, all driven by the annotated traces of package tango:
//
//   - BASE: an in-order processor that completes each operation before
//     initiating the next — no overlap at all (the leftmost bar of Figure 3).
//   - SSBR: statically scheduled, blocking reads, with a 16-deep write
//     buffer whose drain order is governed by the consistency model.
//   - SS: statically scheduled with non-blocking reads — loads enter a
//     16-deep read buffer and the stall is delayed to the first use of the
//     return value.
//   - DS: the dynamically scheduled processor derived from Johnson's
//     architecture — a reorder buffer (lookahead window) of 16–256 entries,
//     register renaming via reorder-buffer tags, reservation-station-style
//     wakeup, a BTB with speculative execution, a store buffer with load
//     bypassing and forwarding, and a lockup-free single-ported cache.
//
// Every model produces an execution-time Breakdown in the same categories
// as Figure 3 (busy, acquire synchronization, read miss, write miss), plus
// two explicit buckets the paper folds away: Branch (fetch-redirect bubbles
// after mispredictions) and Other (rare pipeline bubbles).
package cpu

import (
	"context"
	"fmt"

	"dynsched/internal/consistency"
	"dynsched/internal/critpath"
	"dynsched/internal/isa"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

// Breakdown decomposes execution time into the Figure 3 stall categories.
// All values are in cycles.
type Breakdown struct {
	Busy   uint64 // cycles retiring useful instructions
	Sync   uint64 // stalled on acquire synchronization
	Read   uint64 // stalled on read misses
	Write  uint64 // stalled on writes (full buffers, releases, drain)
	Branch uint64 // fetch-redirect bubbles after mispredicted branches
	Other  uint64 // residual pipeline bubbles
}

// Total returns total execution time in cycles.
func (b Breakdown) Total() uint64 {
	return b.Busy + b.Sync + b.Read + b.Write + b.Branch + b.Other
}

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Busy += o.Busy
	b.Sync += o.Sync
	b.Read += o.Read
	b.Write += o.Write
	b.Branch += o.Branch
	b.Other += o.Other
}

// String formats the breakdown compactly for logs and examples.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%d busy=%d sync=%d read=%d write=%d branch=%d other=%d",
		b.Total(), b.Busy, b.Sync, b.Read, b.Write, b.Branch, b.Other)
}

// Result is the outcome of replaying a trace through a processor model.
type Result struct {
	Breakdown    Breakdown
	Instructions uint64
	Mispredicts  uint64 // mispredicted conditional branches (DS only)
	Prefetches   uint64 // non-binding prefetches issued (DS with Prefetch)

	// AvgOccupancy is the mean number of instructions resident in the
	// reorder buffer per cycle (DS only). It quantifies the §5 discussion
	// of FIFO retirement: completed instructions that cannot retire yet
	// still occupy window slots.
	AvgOccupancy float64

	// ReadMissDelay is the histogram of the decode-to-issue delay of read
	// misses, the §4.1.3 diagnostic ("one such result measures the delay of
	// each read miss from the time the instruction is decoded ... to the
	// time the read is issued to memory"). DS only; nil for the other
	// models.
	ReadMissDelay *obs.LocalHistogram
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Breakdown.Total()) / float64(r.Instructions)
}

// Config parameterizes the processor models. Replay completes its zero
// fields with the paper's machine: window 64, issue width 1 and 16-entry
// buffers.
type Config struct {
	Model consistency.Model

	// Window is the DS reorder-buffer (lookahead window) size: the maximum
	// number of instructions resident at once. Paper: 16–256.
	Window int

	// IssueWidth is the maximum decode/retire rate per cycle. The paper's
	// main experiments use 1; §4.2 explores 4.
	IssueWidth int

	// WriteBufDepth is the write buffer depth for SSBR/SS (paper: 16 words).
	WriteBufDepth int
	// ReadBufDepth is the SS read buffer depth (paper: 16 words).
	ReadBufDepth int
	// StoreBufDepth is the DS store buffer depth.
	StoreBufDepth int

	// MSHRs bounds outstanding cache misses; 0 means unlimited (the paper
	// assumes an aggressive lockup-free cache and memory system).
	MSHRs int

	// Predictor supplies branch predictions for the DS model. nil selects
	// the paper's 2048-entry 4-way BTB; use bpred.Perfect{} for the perfect
	// branch prediction experiments of Figure 4.
	Predictor trace.Predictor

	// IgnoreDataDeps removes register data dependences (Figure 4, right
	// half). Consistency-model ordering constraints are still respected,
	// exactly as in the paper's footnote 3.
	IgnoreDataDeps bool

	// Prefetch enables non-binding hardware prefetching for accesses that
	// are ready but delayed by consistency constraints — the first of the
	// two SC-boosting techniques of Gharachorloo et al. [8], discussed in
	// §6 of the paper. A prefetch brings the line toward the cache without
	// binding the value; when the access later issues for real, its
	// latency is reduced by the time the prefetch has been in flight.
	Prefetch bool

	// SpeculativeLoads enables the second technique of [8]: loads issue
	// speculatively even when the consistency model forbids it, relying on
	// a rollback mechanism if another processor invalidates the
	// speculatively-read line before the load retires. The replay models
	// the optimistic case (no rollbacks), which [8] found to be the common
	// one; it is therefore an upper bound on the technique's benefit.
	// Stores still obey the model, and loads still retire in order.
	SpeculativeLoads bool

	// Observability hooks (package obs). All are optional, nil by default,
	// and nil-safe: a disabled replay pays only nil checks.

	// Metrics receives the run's counters and occupancy/delay histograms.
	Metrics *obs.Registry
	// MetricsPrefix prefixes every metric name this replay registers
	// (e.g. "cpu.lu.RC-DS64.").
	MetricsPrefix string
	// Pipe records per-instruction pipeline events at retirement for
	// Konata / Chrome-trace export.
	Pipe *obs.PipeTracer
	// Progress receives periodic instruction/cycle counts for the -progress
	// ticker, as one labelled lane so concurrent replays do not clobber each
	// other's rows (obtain one via Progress.Lane).
	Progress *obs.Lane
	// CritPath collects critical-path cycle attribution: the model
	// classifies every stall cycle as a Figure 3 category and a fine cause
	// at once, the cause lands in the collector's bucket, and each retired
	// instruction records its last-arriving dependence edge. The collector
	// is per-replay (not safe for sharing across cells); the buckets it
	// accumulates sum exactly to Breakdown.Total(). nil (the default)
	// collects nothing and costs only nil checks.
	CritPath *critpath.Collector
	// Timeline, when non-nil, receives cumulative state snapshots at
	// aligned 2^k-cycle boundaries (stall breakdown, retired instructions,
	// structure-occupancy integrals, and — when CritPath is also set —
	// fine-cause cycle counts), read from the same charges as the
	// Breakdown. Sampling is purely observational: a charge of many cycles
	// at once (a time-skip jump, a BASE instruction) snapshots each
	// boundary it crosses at its exact cycle, so the series is
	// byte-identical skip vs noskip and the simulated Result is untouched.
	Timeline *obs.Timeline

	// NoTimeSkip forces the cycle-stepped simulation path. By default the
	// replay loops are event-driven: when a cycle completes nothing, accepts
	// nothing, issues nothing, and charges exactly one stall cycle, the
	// machine state is a fixed point until the next scheduled event
	// (a miss completion, an acquire's contention wall, a prefetch-decay
	// threshold), so simulated time jumps there directly and the skipped
	// stall cycles are charged in bulk. The two paths are byte-identical in
	// every Result field, stall category, and histogram; NoTimeSkip exists
	// as the escape hatch that proves it (see TestSkipEquivalence) and as a
	// debugging aid when stepping through individual cycles.
	NoTimeSkip bool

	// Robustness controls.

	// Ctx cancels a long replay cooperatively: the simulation loops poll it
	// every few thousand cycles and return its error once it is done. nil
	// means never cancel.
	Ctx context.Context

	// WatchdogBudget is the maximum number of cycles a replay may run
	// without forward progress (retiring an instruction or accepting /
	// completing an access) before it is killed with a *WatchdogError
	// carrying a pipeline-state dump. 0 selects DefaultWatchdogBudget.
	WatchdogBudget uint64
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 64
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 1
	}
	if c.WriteBufDepth == 0 {
		c.WriteBufDepth = 16
	}
	if c.ReadBufDepth == 0 {
		c.ReadBufDepth = 16
	}
	if c.StoreBufDepth == 0 {
		c.StoreBufDepth = 16
	}
	return c
}

// MaxWindow is the largest DS reorder-buffer window a replay accepts, far
// above the paper's 256. It bounds the ring a replay allocates, and
// experiment cell specs share it.
const MaxWindow = 1 << 20

func (c Config) validate() error {
	if c.Window < 1 || c.Window > MaxWindow {
		return fmt.Errorf("cpu: window %d out of range [1, %d]", c.Window, MaxWindow)
	}
	if c.IssueWidth < 1 {
		return fmt.Errorf("cpu: issue width %d < 1", c.IssueWidth)
	}
	if c.WriteBufDepth < 1 || c.ReadBufDepth < 1 || c.StoreBufDepth < 1 {
		return fmt.Errorf("cpu: buffer depths must be >= 1")
	}
	return nil
}

// classOf distinguishes the scheduling classes a replay model cares about.
// Sync opcodes split by acquire/release: a barrier behaves as an acquire
// (it blocks) whose kind also carries the release ordering.
func isAcquireClass(op isa.Op) bool {
	return op == isa.OpLock || op == isa.OpWaitEv || op == isa.OpBarrier
}
func isReleaseOnly(op isa.Op) bool { return op == isa.OpUnlock || op == isa.OpSetEv }
