// Package tango is the execution-driven multiprocessor simulator — the
// repository's equivalent of the Tango Lite environment of §3.2. It runs one
// virtual-ISA thread per processor over a shared functional memory, models
// per-processor coherent caches with a fixed miss penalty, services the
// synchronization primitives (locks, barriers, events), and emits the
// annotated dynamic instruction trace for a chosen processor. A recorded
// processor's events are filled in place in the fixed-size chunks of a
// trace.Builder, so a growing trace is never copied; the builder hands over
// an exactly sized trace when the run ends.
//
// The simulated processors are, as in the paper, "simple in-order issue
// processors with blocking reads"; writes are placed in a write buffer and
// the multiprocessor simulation runs under release consistency, so write
// latency does not stall the processors but releases drain the write buffer.
//
// The simulator is deterministic: processors are stepped in global time
// order with processor id breaking ties, so a given application and
// configuration always produces the identical trace. The scheduler finds the
// next processor in a time wheel (readyQueue): one bucket per cycle for the
// next wheelSpan cycles, each a bit mask of ready processor ids, with a
// binary heap holding the rare wakeups further ahead. The processors run
// almost in lockstep, so nearly every pop is a bit scan of the current or
// next cycle's bucket instead of a heap pop among tied entries.
//
// Processors interleave only at memory, synchronization and halt
// instructions. An ALU or branch instruction reads and writes only its
// processor's registers and PC, and its statistics and trace event belong
// to that processor alone, so a scheduler turn runs a processor's whole run
// of them, one cycle each, and pushes it back once, as Tango Lite switches
// processes only at memory and synchronization events. Every other
// processor's instructions at those cycles still run in the same global
// order, so traces, statistics and timeline points are identical to
// stepping one instruction per turn.
package tango

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"dynsched/internal/asm"
	"dynsched/internal/isa"
	"dynsched/internal/mem"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
	"dynsched/internal/vm"
)

// Config parameterizes a simulation run.
type Config struct {
	NumCPUs  int        // processors (paper: 16)
	Mem      mem.Config // cache geometry and miss penalty
	TraceCPU int        // processor whose trace to record; -1 records none
	// RecordAll records every processor's trace (Result.Traces); used by
	// the multiple-hardware-contexts experiments, which interleave several
	// processors' instruction streams on one pipeline.
	RecordAll bool
	// MemIssueInterval models finite global memory bandwidth: the minimum
	// number of cycles between the starts of successive miss services
	// across the whole machine. 0 (the paper's assumption, §3.2) means
	// unbounded bandwidth — "queuing and contention effects in the
	// interconnection network are not modeled". A non-zero value adds
	// queueing delay to each miss, lengthening its recorded latency.
	MemIssueInterval uint32
	// MaxInstrs bounds per-processor dynamic instructions (0 = 2^40); it
	// guards against runaway application bugs, not normal execution.
	MaxInstrs uint64
	// MaxCycles bounds simulated machine time (0 = unbounded). A program
	// that spins past it is killed with a *MachineError carrying a
	// machine-state dump, the multiprocessor counterpart of the replay
	// watchdog in package cpu.
	MaxCycles uint64
	// Ctx cancels a long simulation cooperatively: the scheduler loop polls
	// it every few thousand instructions. nil means never cancel.
	Ctx context.Context

	// Metrics, when non-nil, receives the machine-level counters after the
	// run: per-CPU cache miss/upgrade/invalidation counts, synchronization
	// wait and transfer cycles, write-buffer drain cycles, whole-machine
	// totals and the write-buffer backlog histogram, all under
	// MetricsPrefix. A run that fails publishes nothing.
	Metrics *obs.Registry
	// MetricsPrefix names this run's metrics (default "tango."); harnesses
	// that run several applications into one registry disambiguate with
	// e.g. "tango.ocean.".
	MetricsPrefix string
	// Progress, when non-nil, receives periodic executed-instruction and
	// simulated-cycle counts for the -progress ticker, as one labelled lane
	// (obtain one via Progress.Lane) so concurrent simulations do not
	// clobber each other's rows.
	Progress *obs.Lane
	// Timeline, when non-nil, receives cumulative machine-wide snapshots at
	// aligned 2^k-cycle boundaries as simulated time passes them: executed
	// instructions (busy cycles) plus summed per-processor sync-wait,
	// read-stall, and write-drain cycles. Unlike the uniprocessor replay
	// breakdowns, these components do not sum to the boundary cycle — the
	// processors stall in parallel — so timeline consumers treat tango
	// series as machine activity curves, not a cycle conservation.
	Timeline *obs.Timeline
}

// DefaultConfig returns the paper's machine: 16 processors, 64 KB caches,
// 50-cycle miss penalty, tracing processor 1 (a representative worker).
func DefaultConfig() Config {
	return Config{NumCPUs: 16, Mem: mem.DefaultConfig(), TraceCPU: 1}
}

// CPUStats summarizes one processor's execution.
type CPUStats struct {
	Instructions uint64 // dynamic instructions (busy cycles)
	FinishCycle  uint64 // absolute time the processor halted
	SyncWait     uint64 // total W cycles spent blocked on synchronization
	SyncTransfer uint64 // total T cycles transferring sync variables
	ReadStall    uint64 // cycles stalled on read misses (beyond the hit cycle)
	WriteDrain   uint64 // cycles releases waited for the write buffer to drain
}

// Result is the outcome of a simulation.
type Result struct {
	Trace      *trace.Trace   // nil when Config.TraceCPU < 0
	Traces     []*trace.Trace // per-processor traces when Config.RecordAll
	CacheStats []mem.Stats
	CPUStats   []CPUStats
	Cycles     uint64 // finish time of the last processor
}

const unblocked = math.MaxUint64

// wheelSpan is the number of per-cycle buckets in the ready queue's wheel.
// It is a fixed constant, not sized from the miss penalty: a 2048-bucket
// wheel measured slower than this one at the paper's 50-cycle penalty, and
// with its overflow heap this wheel still beat the heap-only queue it
// replaced at a 1000-cycle penalty. It must be a power of two and at least
// 64 (one occupancy word per 64 buckets).
const wheelSpan = 256

// readyQueue is the scheduler's event queue: the set of pending (at, id)
// wakeups, popped in (at, lowest id) order — exactly the interleaving of the
// original linear scan ("smallest readyAt, lowest id wins"), so traces are
// bit-identical. The processors advance almost in lockstep, so wakeups
// cluster within a few cycles of the current time; the queue indexes them
// by cycle instead of searching for the minimum.
//
// Wakeups fewer than wheelSpan cycles after now live in a wheel of
// per-cycle buckets, bucket at%wheelSpan, each a bit mask of ready processor
// ids (words uint64s per bucket, so any processor count stays on the
// wheel). The lowest set bit is the lowest id. Wakeups further ahead wait in
// the far heap and move onto the wheel as now comes within wheelSpan of
// them, so the wheel's first non-empty bucket always holds the minimum.
//
// A push must not be earlier than now, the time of the last pop; the
// scheduler only schedules wakeups at or after the step it is executing.
// A duplicate (at, id) push is popped once.
type readyQueue struct {
	now   uint64                 // time of the last pop
	words int                    // mask words per bucket: ⌈NumCPUs/64⌉
	occ   [wheelSpan / 64]uint64 // bit b set: bucket b is non-empty
	masks []uint64               // bucket b's mask is masks[b*words : (b+1)*words]
	far   procHeap               // wakeups at or after now+wheelSpan
}

func newReadyQueue(numCPUs int) readyQueue {
	words := (numCPUs + 63) / 64
	return readyQueue{words: words, masks: make([]uint64, wheelSpan*words)}
}

func (q *readyQueue) push(at uint64, id int) {
	if at-q.now >= wheelSpan {
		q.far.push(procEntry{at: at, id: id})
		return
	}
	b := int(at % wheelSpan)
	q.masks[b*q.words+id>>6] |= 1 << (id & 63)
	q.occ[b>>6] |= 1 << (b & 63)
}

// pop removes and returns the smallest pending (at, id), advancing now to
// its time; ok is false when the queue is empty.
func (q *readyQueue) pop() (e procEntry, ok bool) {
	b := q.firstBucket()
	if b < 0 {
		if len(q.far) == 0 {
			return procEntry{}, false
		}
		q.now = q.far[0].at
		b = int(q.now % wheelSpan)
	} else {
		q.now += uint64((b - int(q.now%wheelSpan)) & (wheelSpan - 1))
	}
	for len(q.far) > 0 && q.far[0].at-q.now < wheelSpan {
		f := q.far.pop()
		q.push(f.at, f.id)
	}
	m := q.masks[b*q.words : (b+1)*q.words]
	for w, x := range m {
		if x == 0 {
			continue
		}
		m[w] = x & (x - 1)
		if m[w] == 0 && isZero(m[w+1:]) {
			q.occ[b>>6] &^= 1 << (b & 63)
		}
		return procEntry{at: q.now, id: w*64 + bits.TrailingZeros64(x)}, true
	}
	panic("tango: ready queue occupancy names an empty bucket")
}

// firstBucket returns the first non-empty bucket at or cyclically after
// now's, which holds the earliest wakeup on the wheel, or -1 if the wheel
// is empty.
func (q *readyQueue) firstBucket() int {
	start := int(q.now % wheelSpan)
	w := start >> 6
	if x := q.occ[w] >> (start & 63); x != 0 {
		return start + bits.TrailingZeros64(x)
	}
	for i := 1; i <= len(q.occ); i++ {
		// The last iteration revisits word w whole: its buckets below
		// start are the wheel's latest cycles.
		wi := (w + i) % len(q.occ)
		if x := q.occ[wi]; x != 0 {
			return wi*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

func isZero(ws []uint64) bool {
	for _, x := range ws {
		if x != 0 {
			return false
		}
	}
	return true
}

// procEntry is one scheduled wakeup in the ready queue's overflow heap.
type procEntry struct {
	at uint64 // the processor's readyAt when the entry was pushed
	id int
}

// procHeap is a binary min-heap on (at, id): the ready queue's overflow for
// wakeups too far ahead for the wheel.
type procHeap []procEntry

func (h *procHeap) push(e procEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lessProc((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *procHeap) pop() procEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && lessProc(old[l], old[s]) {
			s = l
		}
		if r < n && lessProc(old[r], old[s]) {
			s = r
		}
		if s == i {
			break
		}
		old[i], old[s] = old[s], old[i]
		i = s
	}
	return top
}

func lessProc(a, b procEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// Synchronization object address spaces. Events and barriers are identified
// by small ids in the ISA; the simulator gives each a cache line of its own
// in a reserved high region so that coherence traffic on sync variables is
// modelled like any other shared data.
const (
	eventAddrBase   = uint64(1) << 44
	barrierAddrBase = uint64(1)<<44 + uint64(1)<<40
)

func eventAddr(id int64) uint64   { return eventAddrBase + uint64(id)*64 }
func barrierAddr(id int64) uint64 { return barrierAddrBase + uint64(id)*64 }

type lockState struct {
	held    bool
	freeAt  uint64 // absolute time the lock becomes free (valid when !held)
	waiters []*proc
}

type eventState struct {
	set     bool
	setAt   uint64
	waiters []*proc
}

type barrierState struct {
	arrived []*proc
	maxTime uint64 // latest arrival time so far in this episode
}

type proc struct {
	id      int
	th      *vm.Thread
	readyAt uint64 // next time this processor can execute an instruction
	halted  bool

	writesDoneAt uint64 // completion time of the last buffered write
	blockedAt    uint64 // when the processor blocked (for W accounting)
	pendingEv    int    // index into trace events to patch on wakeup (-1 none)

	stats CPUStats
}

// sim carries the full machine state during Run.
type sim struct {
	cfg    Config
	procs  []*proc
	caches *mem.System
	shared *vm.PagedMem

	locks    map[uint64]*lockState
	events   map[int64]*eventState
	barriers map[int64]*barrierState

	rec []*trace.Builder // per-processor trace builders; nil for a processor not recorded

	ready readyQueue // pending (readyAt, id) wakeups

	memNextFree uint64 // earliest time the memory system accepts a new miss

	// Observability (all optional; see Config.Metrics / Config.Progress).
	wbHist   *obs.LocalHistogram // store-time write-buffer backlog, in cycles (published at the end of the run)
	steps    uint64              // instructions executed machine-wide
	pubSteps uint64              // steps already published to Progress
	pubCycle uint64              // latest global time published to Progress
}

// Run simulates progs (one per processor; len(progs) must equal
// cfg.NumCPUs) against a shared memory initialized by memInit (which may be
// nil). It returns the recorded trace and statistics.
func Run(progs []*asm.Program, memInit func(m *vm.PagedMem), cfg Config) (*Result, error) {
	if cfg.NumCPUs <= 0 {
		return nil, fmt.Errorf("tango: NumCPUs = %d", cfg.NumCPUs)
	}
	if len(progs) != cfg.NumCPUs {
		return nil, fmt.Errorf("tango: %d programs for %d processors", len(progs), cfg.NumCPUs)
	}
	if cfg.TraceCPU >= cfg.NumCPUs {
		return nil, fmt.Errorf("tango: TraceCPU %d out of range", cfg.TraceCPU)
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 1 << 40
	}
	if cfg.MetricsPrefix == "" {
		cfg.MetricsPrefix = "tango."
	}

	caches, err := mem.NewSystem(cfg.NumCPUs, cfg.Mem)
	if err != nil {
		return nil, err
	}
	shared := vm.NewPagedMem()
	if memInit != nil {
		memInit(shared)
	}

	s := &sim{
		cfg:      cfg,
		caches:   caches,
		shared:   shared,
		locks:    make(map[uint64]*lockState),
		events:   make(map[int64]*eventState),
		barriers: make(map[int64]*barrierState),
	}
	if cfg.Metrics != nil {
		s.wbHist = obs.NewLocalHistogram(0, 1, 2, 5, 10, 25, 50, 100, 250)
	}
	s.rec = make([]*trace.Builder, cfg.NumCPUs)
	for i := range s.rec {
		if cfg.RecordAll || i == cfg.TraceCPU {
			s.rec[i] = trace.NewBuilder(trace.Meta{
				App:         progs[i].Name,
				CPU:         i,
				NumCPUs:     cfg.NumCPUs,
				MissPenalty: caches.Config().MissPenalty,
			})
		}
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		th := vm.NewThread(progs[i], shared)
		th.SetReg(asm.RegCPU, uint64(i))
		th.SetReg(asm.RegNCPU, uint64(cfg.NumCPUs))
		s.procs = append(s.procs, &proc{id: i, th: th, pendingEv: -1})
	}

	if err := s.loop(); err != nil {
		return nil, err
	}

	res := &Result{}
	if cfg.RecordAll {
		res.Traces = make([]*trace.Trace, cfg.NumCPUs)
	}
	for i, b := range s.rec {
		if b == nil {
			continue
		}
		tr := b.Trace()
		if cfg.RecordAll {
			res.Traces[i] = tr
		}
		if i == cfg.TraceCPU {
			res.Trace = tr // the same trace as Traces[i] under RecordAll
		}
	}
	for i, p := range s.procs {
		res.CacheStats = append(res.CacheStats, caches.Stats(i))
		res.CPUStats = append(res.CPUStats, p.stats)
		if p.stats.FinishCycle > res.Cycles {
			res.Cycles = p.stats.FinishCycle
		}
	}
	if cfg.Progress != nil {
		s.publishProgress(res.Cycles)
	}
	if tl := cfg.Timeline; tl != nil {
		tl.Finish(s.timelinePoint(res.Cycles))
	}
	s.publishMetrics(res)
	return res, nil
}

// timelinePoint sums the per-processor counters into one cumulative
// machine-wide timeline snapshot for the boundary at cycle.
func (s *sim) timelinePoint(cycle uint64) obs.TimelinePoint {
	p := obs.TimelinePoint{Cycle: cycle, Instructions: s.steps, Busy: s.steps}
	for _, pr := range s.procs {
		p.Sync += pr.stats.SyncWait + pr.stats.SyncTransfer
		p.Read += pr.stats.ReadStall
		p.Write += pr.stats.WriteDrain
	}
	return p
}

// publishProgress flushes the machine-wide instruction and cycle deltas
// accumulated since the previous flush into the Progress ticker.
func (s *sim) publishProgress(now uint64) {
	var dc uint64
	if now > s.pubCycle {
		dc = now - s.pubCycle
		s.pubCycle = now
	}
	s.cfg.Progress.Add(s.steps-s.pubSteps, dc)
	s.pubSteps = s.steps
}

// publishMetrics exports the run's per-CPU and machine-level counters and
// its write-buffer backlog histogram into Config.Metrics under
// Config.MetricsPrefix. It runs only when the run completes, so a failed run
// publishes nothing. No-op without a registry.
func (s *sim) publishMetrics(res *Result) {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	reg.MergeHistogram(s.cfg.MetricsPrefix+"writebuf.backlog_cycles", s.wbHist)
	var instrs, misses, accesses uint64
	for i, p := range s.procs {
		pre := fmt.Sprintf("%scpu%02d.", s.cfg.MetricsPrefix, i)
		set := func(name string, v uint64) { reg.Counter(pre + name).Set(v) }
		st := s.caches.Stats(i)
		set("cache.read_hits", st.ReadHits)
		set("cache.read_misses", st.ReadMisses)
		set("cache.write_hits", st.WriteHits)
		set("cache.write_misses", st.WriteMisses)
		set("cache.upgrades", st.Upgrades)
		set("cache.evictions", st.Evictions)
		set("cache.invalidations", st.Invalidates)
		set("instructions", p.stats.Instructions)
		set("finish_cycle", p.stats.FinishCycle)
		set("sync.wait_cycles", p.stats.SyncWait)
		set("sync.transfer_cycles", p.stats.SyncTransfer)
		set("read.stall_cycles", p.stats.ReadStall)
		set("writebuf.drain_cycles", p.stats.WriteDrain)
		instrs += p.stats.Instructions
		misses += st.ReadMisses + st.WriteMisses
		accesses += st.Reads() + st.Writes()
	}
	mpre := s.cfg.MetricsPrefix + "machine."
	reg.Counter(mpre + "cycles").Set(res.Cycles)
	reg.Counter(mpre + "instructions").Set(instrs)
	reg.Counter(mpre + "cache.misses").Set(misses)
	reg.Counter(mpre + "cache.accesses").Set(accesses)
	if accesses > 0 {
		reg.Gauge(mpre + "cache.miss_rate").Set(float64(misses) / float64(accesses))
	}
}

// enqueue schedules p's next wakeup in the ready queue; no-op for halted or
// blocked processors (a blocked processor is enqueued by whoever wakes it).
func (s *sim) enqueue(p *proc) {
	if p.halted || p.readyAt == unblocked {
		return
	}
	s.ready.push(p.readyAt, p.id)
}

func (s *sim) loop() error {
	running := len(s.procs)
	s.ready = newReadyQueue(len(s.procs))
	for _, p := range s.procs {
		s.enqueue(p)
	}
	for running > 0 {
		// Pop the processor with the smallest ready time (lowest id wins
		// ties) — the same deterministic global-time-order interleaving the
		// linear scan produced, now via the event queue: the scheduler does
		// no per-processor polling, it jumps straight to the next wakeup.
		var next *proc
		for {
			e, ok := s.ready.pop()
			if !ok {
				break
			}
			p := s.procs[e.id]
			if p.halted || p.readyAt == unblocked || p.readyAt != e.at {
				continue // stale: the processor moved on (or blocked) since the push
			}
			next = p
			break
		}
		if next == nil {
			return s.machineError("deadlock", s.ready.now,
				"%d processors blocked with no pending wakeup", s.blockedCount())
		}
		now := next.readyAt
		// Global time is monotone (the queue pops smallest readyAt first),
		// so every 2^k boundary the machine passes is crossed exactly once:
		// record the cumulative machine state before the step at now runs.
		if tl := s.cfg.Timeline; tl != nil {
			for b := tl.Boundary(); b <= now; b = tl.Boundary() {
				tl.Record(s.timelinePoint(b))
			}
		}
		if next.th.Executed >= s.cfg.MaxInstrs {
			return s.machineError("runaway", now,
				"cpu %d exceeded %d instructions (runaway program?)", next.id, s.cfg.MaxInstrs)
		}
		if s.cfg.MaxCycles > 0 && now > s.cfg.MaxCycles {
			return s.machineError("cycle budget", now,
				"simulated time passed %d cycles with %d processors still running (livelocked program?)",
				s.cfg.MaxCycles, running)
		}
		n, halted, err := s.step(next)
		if err != nil {
			return err
		}
		s.steps += n
		// A turn may run many instructions, so poll when the step count
		// crosses a PublishEvery boundary rather than when it lands on one.
		if (s.steps-n)/obs.PublishEvery != s.steps/obs.PublishEvery {
			if err := s.ctxErr(); err != nil {
				return fmt.Errorf("tango: simulation canceled at cycle %d: %w", now, err)
			}
			if s.cfg.Progress != nil {
				s.publishProgress(now)
			}
		}
		if halted {
			running--
		} else {
			s.enqueue(next)
		}
	}
	return nil
}

// ctxErr polls the cancellation context without blocking.
func (s *sim) ctxErr() error {
	if s.cfg.Ctx == nil {
		return nil
	}
	select {
	case <-s.cfg.Ctx.Done():
		return s.cfg.Ctx.Err()
	default:
		return nil
	}
}

func (s *sim) blockedCount() int {
	blocked := 0
	for _, p := range s.procs {
		if !p.halted {
			blocked++
		}
	}
	return blocked
}

// MachineError reports a simulation killed by the scheduler — deadlock,
// runaway instruction count, or the cycle budget — with a machine-state
// dump. It is permanent: the simulation is deterministic, so a retry would
// fail identically.
type MachineError struct {
	Reason string // "deadlock", "runaway", "cycle budget"
	Cycle  uint64 // global time when the error fired (for deadlock, of the last step)
	Detail string
	State  string // per-processor machine-state dump
}

func (e *MachineError) Error() string {
	return fmt.Sprintf("tango: %s — %s; machine state: %s", e.Reason, e.Detail, e.State)
}

// Permanent marks the error as not worth retrying (see exp's retry policy).
func (e *MachineError) Permanent() bool { return true }

func (s *sim) machineError(reason string, cycle uint64, format string, args ...any) error {
	return &MachineError{
		Reason: reason,
		Cycle:  cycle,
		Detail: fmt.Sprintf(format, args...),
		State:  s.machineState(),
	}
}

// machineState renders a compact per-processor dump for diagnostics: where
// each processor is (pc), how far it got (instructions), and whether it is
// running, blocked on synchronization, or halted.
func (s *sim) machineState() string {
	var b strings.Builder
	for i, p := range s.procs {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case p.halted:
			fmt.Fprintf(&b, "cpu%d halted@%d after %d instrs", p.id, p.stats.FinishCycle, p.stats.Instructions)
		case p.readyAt == unblocked:
			fmt.Fprintf(&b, "cpu%d blocked since %d at pc %d (%d instrs)",
				p.id, p.blockedAt, p.th.PC, p.stats.Instructions)
		default:
			fmt.Fprintf(&b, "cpu%d ready@%d at pc %d (%d instrs)",
				p.id, p.readyAt, p.th.PC, p.stats.Instructions)
		}
	}
	locks, waiters := 0, 0
	for _, l := range s.locks {
		if l.held {
			locks++
		}
		waiters += len(l.waiters)
	}
	fmt.Fprintf(&b, "; locks held=%d lock-waiters=%d", locks, waiters)
	return b.String()
}

// record adds the event for the instruction info describes, with its
// annotations, to p's trace and returns its index, or -1 when p is not
// recorded. The event is filled in place in the builder's chunk.
func (s *sim) record(p *proc, info *vm.StepInfo, latency, wait uint32, miss bool) int {
	b := s.rec[p.id]
	if b == nil {
		return -1
	}
	i := b.Len()
	e := b.Append()
	e.PC = int32(info.PC)
	e.Instr = info.Instr
	e.Addr = info.Addr
	e.Latency, e.Wait, e.Miss = latency, wait, miss
	e.Taken = info.Taken
	e.NextPC = int32(info.NextPC)
	return i
}

// maxBatch caps the instructions one scheduler turn runs, so that a
// processor in an endless ALU loop still returns to loop, which polls the
// context and checks the budgets. A turn's wakeup, at most maxBatch cycles
// after the time it was popped at, stays on the ready queue's wheel.
const maxBatch = wheelSpan - 1

// unbatched, set only by tests, runs every instruction through the ready
// queue: the reference schedule the batched one must reproduce exactly.
var unbatched bool

// step executes instructions on p in one scheduler turn, advancing its
// clock and possibly blocking it: a run of local instructions, or else one
// memory, sync or halt instruction. It returns how many instructions ran
// and whether the processor halted.
func (s *sim) step(p *proc) (uint64, bool, error) {
	t := p.readyAt
	if !unbatched {
		if k := s.runLocal(p, t); k > 0 {
			p.readyAt = t + k
			return k, false, nil
		}
	}
	info, err := p.th.Step()
	if err != nil {
		return 0, false, fmt.Errorf("tango: cpu %d: %w", p.id, err)
	}
	p.stats.Instructions++
	halted, err := s.stepTimed(p, t, &info)
	return 1, halted, err
}

// runLocal runs p's ALU and branch instructions from cycle t, one cycle
// each, ahead of the other processors' instructions at those cycles (the
// package comment says why that changes nothing), and returns how many
// ran. The run stops at the first other instruction and before the cycles
// at which loop acts on global time:
//   - the next timeline boundary, whose point counts the instructions run
//     before it;
//   - MaxCycles+1, where the cycle budget fires;
//   - MaxInstrs: a processor executes at most one instruction per cycle,
//     so the runaway check cannot fire earlier, and stopping there leaves
//     every processor as the unbatched schedule would when it does;
//   - maxBatch instructions.
func (s *sim) runLocal(p *proc, t uint64) uint64 {
	end := min(t+maxBatch, s.cfg.Timeline.Boundary(), s.cfg.MaxInstrs)
	if s.cfg.MaxCycles > 0 {
		end = min(end, s.cfg.MaxCycles+1)
	}
	th, b := p.th, s.rec[p.id]
	now := t
	for now < end {
		pc := th.PC
		taken, ok := th.StepLocal()
		if !ok {
			break
		}
		if b != nil {
			e := b.Append()
			e.PC = int32(pc)
			e.Instr = th.Prog.Instrs[pc]
			e.Taken = taken
			e.NextPC = int32(th.PC)
		}
		now++
	}
	k := now - t
	p.stats.Instructions += k
	return k
}

// stepTimed applies the timing of the instruction info describes, which p
// executed at cycle t. It reports whether the processor halted.
func (s *sim) stepTimed(p *proc, t uint64, info *vm.StepInfo) (bool, error) {
	switch isa.Classify(info.Instr.Op) {
	case isa.ClassALU, isa.ClassBranch:
		p.readyAt = t + 1
		s.record(p, info, 0, 0, false)

	case isa.ClassLoad:
		lat, miss := s.memRead(p.id, info.Addr, t)
		p.readyAt = t + uint64(lat) // blocking read
		if miss {
			p.stats.ReadStall += uint64(lat - 1)
		}
		s.record(p, info, lat, 0, miss)

	case isa.ClassStore:
		lat, miss := s.memWrite(p.id, info.Addr, t)
		if p.writesDoneAt > t {
			s.wbHist.Observe(p.writesDoneAt - t)
		} else {
			s.wbHist.Observe(0)
		}
		// Buffered write under RC: the processor continues next cycle; the
		// write completes in the background.
		done := t + uint64(lat)
		if done > p.writesDoneAt {
			p.writesDoneAt = done
		}
		p.readyAt = t + 1
		s.record(p, info, lat, 0, miss)

	case isa.ClassSync:
		return false, s.stepSync(p, t, info)

	case isa.ClassHalt:
		p.halted = true
		p.stats.FinishCycle = t
		s.record(p, info, 0, 0, false)
		return true, nil
	}
	return false, nil
}

// stepSync handles the five synchronization opcodes.
func (s *sim) stepSync(p *proc, t uint64, info *vm.StepInfo) error {
	switch info.Instr.Op {
	case isa.OpLock:
		l := s.locks[info.Addr]
		if l == nil {
			l = &lockState{}
			s.locks[info.Addr] = l
		}
		if !l.held && l.freeAt <= t {
			// Free now: acquire immediately. The transfer is a read-modify-
			// write of the lock variable, modelled as an exclusive access.
			lat, miss := s.memWrite(p.id, info.Addr, t)
			l.held = true
			p.readyAt = t + uint64(lat)
			p.stats.SyncTransfer += uint64(lat)
			s.record(p, info, lat, 0, miss)
			return nil
		}
		if !l.held { // free, but only at a future time (release in flight)
			w := l.freeAt - t
			lat, miss := s.memWrite(p.id, info.Addr, t)
			l.held = true
			p.readyAt = l.freeAt + uint64(lat)
			p.stats.SyncWait += w
			p.stats.SyncTransfer += uint64(lat)
			s.record(p, info, lat, uint32(w), miss)
			return nil
		}
		// Held: block until granted by an unlock.
		p.blockedAt = t
		p.readyAt = unblocked
		p.pendingEv = s.record(p, info, 0, 0, false)
		l.waiters = append(l.waiters, p)
		return nil

	case isa.OpUnlock:
		l := s.locks[info.Addr]
		if l == nil || !l.held {
			return fmt.Errorf("tango: cpu %d unlocks free lock %#x at pc %d", p.id, info.Addr, info.PC)
		}
		// Release semantics: the unlock write is ordered after all pending
		// writes; the processor itself continues (buffered write).
		freeAt := t
		if p.writesDoneAt > freeAt {
			freeAt = p.writesDoneAt
			p.stats.WriteDrain += freeAt - t
		}
		lat, miss := s.memWrite(p.id, info.Addr, t)
		p.stats.SyncTransfer += uint64(lat)
		freeAt += uint64(lat)
		if freeAt > p.writesDoneAt {
			p.writesDoneAt = freeAt
		}
		p.readyAt = t + 1
		s.record(p, info, lat, 0, miss)

		if len(l.waiters) > 0 {
			// Grant to the first waiter (FIFO).
			w := l.waiters[0]
			l.waiters = l.waiters[1:]
			lat, miss := s.memWrite(w.id, info.Addr, freeAt)
			wait := freeAt - w.blockedAt
			w.readyAt = freeAt + uint64(lat)
			w.stats.SyncWait += wait
			w.stats.SyncTransfer += uint64(lat)
			s.patch(w, uint32(lat), uint32(wait), miss)
			s.enqueue(w)
		} else {
			l.held = false
			l.freeAt = freeAt
		}
		return nil

	case isa.OpBarrier:
		id := int64(info.Addr) // runtime barrier id (reg + imm)
		b := s.barriers[id]
		if b == nil {
			b = &barrierState{}
			s.barriers[id] = b
		}
		// Arrival is a release: drain the write buffer, then update the
		// barrier counter (a shared line).
		arrive := t
		if p.writesDoneAt > arrive {
			arrive = p.writesDoneAt
			p.stats.WriteDrain += arrive - t
		}
		lat, _ := s.memWrite(p.id, barrierAddr(id), arrive)
		p.stats.SyncTransfer += uint64(lat)
		arrive += uint64(lat)
		if arrive > b.maxTime {
			b.maxTime = arrive
		}
		p.blockedAt = t
		p.readyAt = unblocked
		p.pendingEv = s.record(p, info, 0, 0, false)
		b.arrived = append(b.arrived, p)
		if len(b.arrived) == s.cfg.NumCPUs {
			depart := b.maxTime
			for _, w := range b.arrived {
				rlat, rmiss := s.memRead(w.id, barrierAddr(id), depart)
				wait := depart - w.blockedAt
				w.readyAt = depart + uint64(rlat)
				w.stats.SyncWait += wait
				w.stats.SyncTransfer += uint64(rlat)
				s.patch(w, uint32(rlat), uint32(wait), rmiss)
				s.enqueue(w)
			}
			b.arrived = b.arrived[:0]
			b.maxTime = 0
		}
		return nil

	case isa.OpWaitEv:
		id := int64(info.Addr)
		e := s.events[id]
		if e != nil && e.set {
			lat, miss := s.memRead(p.id, eventAddr(id), t)
			var wait uint64
			if e.setAt > t { // set-in-flight: value visible only at setAt
				wait = e.setAt - t
			}
			p.readyAt = t + wait + uint64(lat)
			p.stats.SyncWait += wait
			p.stats.SyncTransfer += uint64(lat)
			s.record(p, info, lat, uint32(wait), miss)
			return nil
		}
		if e == nil {
			e = &eventState{}
			s.events[id] = e
		}
		p.blockedAt = t
		p.readyAt = unblocked
		p.pendingEv = s.record(p, info, 0, 0, false)
		e.waiters = append(e.waiters, p)
		return nil

	case isa.OpSetEv:
		id := int64(info.Addr)
		e := s.events[id]
		if e == nil {
			e = &eventState{}
			s.events[id] = e
		}
		setAt := t
		if p.writesDoneAt > setAt {
			setAt = p.writesDoneAt
			p.stats.WriteDrain += setAt - t
		}
		lat, miss := s.memWrite(p.id, eventAddr(id), setAt)
		p.stats.SyncTransfer += uint64(lat)
		setAt += uint64(lat)
		e.set, e.setAt = true, setAt
		if setAt > p.writesDoneAt {
			p.writesDoneAt = setAt
		}
		p.readyAt = t + 1
		s.record(p, info, lat, 0, miss)
		for _, w := range e.waiters {
			rlat, rmiss := s.memRead(w.id, eventAddr(id), setAt)
			wait := setAt - w.blockedAt
			w.readyAt = setAt + uint64(rlat)
			w.stats.SyncWait += wait
			w.stats.SyncTransfer += uint64(rlat)
			s.patch(w, uint32(rlat), uint32(wait), rmiss)
			s.enqueue(w)
		}
		e.waiters = e.waiters[:0]
		return nil
	}
	return fmt.Errorf("tango: unhandled sync op %v", info.Instr.Op)
}

// memRead performs a timing cache read, adding queueing delay at the
// memory system when bandwidth is finite.
func (s *sim) memRead(cpu int, addr uint64, t uint64) (uint32, bool) {
	lat, miss := s.caches.Read(cpu, addr)
	if miss {
		lat += s.queueDelay(t)
	}
	return lat, miss
}

// memWrite is memRead for writes.
func (s *sim) memWrite(cpu int, addr uint64, t uint64) (uint32, bool) {
	lat, miss := s.caches.Write(cpu, addr)
	if miss {
		lat += s.queueDelay(t)
	}
	return lat, miss
}

// queueDelay reserves a miss-service slot at the memory system and returns
// the extra cycles this miss spends queued.
func (s *sim) queueDelay(t uint64) uint32 {
	if s.cfg.MemIssueInterval == 0 {
		return 0
	}
	start := t
	if s.memNextFree > start {
		start = s.memNextFree
	}
	s.memNextFree = start + uint64(s.cfg.MemIssueInterval)
	return uint32(start - t)
}

// patch fills in the wait/transfer annotation of a blocked processor's
// pending trace event once it is woken.
func (s *sim) patch(p *proc, latency, wait uint32, miss bool) {
	if p.pendingEv < 0 {
		return
	}
	e := s.rec[p.id].At(p.pendingEv)
	e.Latency, e.Wait, e.Miss = latency, wait, miss
	p.pendingEv = -1
}
