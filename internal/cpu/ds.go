package cpu

import (
	"fmt"

	"dynsched/internal/bpred"
	"dynsched/internal/consistency"
	"dynsched/internal/critpath"
	"dynsched/internal/isa"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

// The DS model follows Johnson's dynamically scheduled processor (§3.1):
//
//   - Decoded instructions enter the reorder buffer (the lookahead window)
//     in program order, at most IssueWidth per cycle, and retire from its
//     head in program order (FIFO retirement, providing precise interrupts).
//   - Register renaming is implicit in the reorder buffer: an instruction
//     depends on the most recent older in-window producer of each source
//     register that has not yet produced its value. WAR/WAW hazards do not
//     exist in the replay because only true dependences are tracked.
//   - Functional units are 1-cycle (paper assumption); dispatch to them is
//     limited to IssueWidth per cycle, oldest-ready first.
//   - Branches are predicted with the configured predictor. A mispredicted
//     branch stops decode (wrong-path instructions are not in the trace, so
//     the lost lookahead is modelled by the fetch stall) and decode resumes
//     the cycle after the branch executes.
//   - Loads and synchronization accesses issue to a lockup-free, single-
//     ported cache. Loads may issue speculatively and out of order whenever
//     the consistency model permits, and may bypass the store buffer with
//     forwarding on an address match. Stores are held until retirement,
//     then drain from the store buffer subject to the consistency model
//     (footnote 2 of the paper).
//   - An acquire's contention component W cannot begin to elapse before the
//     acquire reaches the head of the window, reproducing the paper's bound
//     that contention and load-imbalance time cannot be hidden, while the
//     memory-transfer component T can be overlapped like any read.

type dsEntry struct {
	seq      int
	ev       *trace.Event
	class    isa.Class
	kind     consistency.Kind
	depCount int
	waiters  []int

	dispatched bool
	done       bool
	mop        *memOp

	decodedAt    uint64
	issuedAt     uint64 // dispatch to a functional unit (pipeline tracing)
	doneAt       uint64 // FU completion / load perform (pipeline tracing)
	headAt       uint64 // cycle the entry reached the ROB head (for W walls)
	headSeen     bool
	mispredicted bool
	waitsOnLoad  bool // some register producer was a load (stall attribution)
}

type dsEventKind uint8

const (
	evDone    dsEventKind = iota // functional unit completes entry
	evPerform                    // memory access performs
)

type dsEvent struct {
	at   uint64
	kind dsEventKind
	mem  consistency.Kind // evPerform: the access's kind, for memPort.lookup
	seq  int
}

// eventHeap is a binary min-heap on event time (ties broken by seq so the
// simulation is deterministic).
type eventHeap []dsEvent

func (h *eventHeap) push(e dsEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lessEv((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() dsEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && lessEv(old[l], old[s]) {
			s = l
		}
		if r < n && lessEv(old[r], old[s]) {
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

func lessEv(a, b dsEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// seqHeap is a min-heap of sequence numbers (oldest-ready-first dispatch).
type seqHeap []int

func (h *seqHeap) push(s int) {
	*h = append(*h, s)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[i] >= (*h)[p] {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *seqHeap) pop() int {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && old[l] < old[s] {
			s = l
		}
		if r < n && old[r] < old[s] {
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

const maxDSCycles = uint64(1) << 40

// runDS is the DS replay core, fed by a Source so the same loop
// serves materialized traces and streaming cursors. Reorder-buffer entries
// hold *trace.Event pointers for at most Window fetches, which Replay
// bounds by trace.CursorLookback over a cursor.
func runDS(src *Source, cfg Config) (Result, error) {
	pred := cfg.Predictor
	if pred == nil {
		pred = bpred.NewPaperBTB()
	}

	scratch := getDSScratch(cfg.Window)
	var (
		acct    = newAccount(&cfg)
		window  = cfg.Window
		entries = scratch.entries
		mask    = len(entries) - 1 // the ring is a power of two >= window

		headSeq, nextSeq int // ROB occupancy is [headSeq, nextSeq)
		idx              int // next trace event to decode

		lastWriter [isa.NumRegs]int

		evq      = scratch.evq
		dispatch = scratch.dispatch

		port    = &scratch.port
		memLive int // unperformed accesses
		sbCount int

		fetchBlockedBy = -1
		mispredicts    uint64
		hist           = obs.NewLocalHistogram(delayBuckets...)
		t              uint64
	)
	defer func() {
		// Hand the (possibly grown) slices back so the pool retains their
		// capacity for the next replay.
		scratch.evq, scratch.dispatch, scratch.runs = evq, dispatch, acct.runs
		scratch.release()
	}()
	for r := range lastWriter {
		lastWriter[r] = -1
	}

	// The account keeps the burst-retirement credit stack and integrates
	// the occupancy of the ROB, the store buffer and the outstanding MSHRs.
	// With metrics on it also histograms them. Those histograms and the
	// read-miss delay histogram are the run's own: the hot loop never
	// touches the shared registry, and they are published once, when the
	// replay finishes, so a failed or cancelled replay publishes none.
	acct.credits, acct.runs = true, scratch.runs
	acct.histogram(&cfg, 0, "rob.occupancy", occupancyBuckets)
	acct.histogram(&cfg, 1, "storebuf.occupancy", bufferBuckets)
	acct.histogram(&cfg, 2, "mshr.outstanding", bufferBuckets)
	at := func(seq int) *dsEntry { return &entries[seq&mask] }
	inROB := func(seq int) bool {
		return seq >= 0 && seq >= headSeq && seq < nextSeq && at(seq).seq == seq
	}
	producerPending := func(seq int) bool {
		// A producer blocks its consumers until its value is available:
		// loads until they perform, everything else until the FU completes.
		if !inROB(seq) {
			return false
		}
		e := at(seq)
		if e.class == isa.ClassLoad {
			return e.mop == nil || !e.mop.performed
		}
		return !e.done
	}
	wake := func(e *dsEntry) {
		for _, w := range e.waiters {
			we := at(w)
			if we.seq != w {
				continue
			}
			we.depCount--
			if we.depCount == 0 {
				makeReady(we, &dispatch, port)
			}
		}
		e.waiters = e.waiters[:0]
	}

	var srcBuf [2]uint8

	// classify is the stall charged to a cycle that retires nothing: the
	// blocking reason at the reorder-buffer head, as a Figure 3 category and
	// a critical-path cause decided together.
	cp := cfg.CritPath
	classify := func() stall {
		if headSeq == nextSeq {
			switch {
			case fetchBlockedBy >= 0:
				return stall{catBranch, critpath.BranchRefill}
			case memLive > 0 && idx >= src.n:
				return stall{catWrite, critpath.WriteLat} // draining the store buffer at the end
			}
			return stall{catOther, critpath.Other}
		}
		h := at(headSeq)
		switch h.class {
		case isa.ClassLoad:
			if h.mop.issued {
				return stall{catRead, critpath.ReadLat}
			}
			// Not yet at the cache port: the cycle is charged to the oldest
			// unperformed access holding the load up (e.g. an incomplete
			// write under SC; at worst the load itself), as in the static
			// models' attribution.
			s := stall{accessStall(port.oldest().kind).cat, critpath.ReadLat}
			switch {
			case !h.mop.addrReady:
				if !h.waitsOnLoad { // else a load-use address chain
					s.cause = critpath.DataDep
				}
			case !cfg.SpeculativeLoads && !consistency.MayIssue(cfg.Model, h.kind, port.front.pending(h.seq)):
				// issueMem's gates in order: consistency ordering first,
				// then the MSHR bound; otherwise it waits on the port.
				s.cause = critpath.Consistency
			case cfg.MSHRs > 0 && port.outMiss >= cfg.MSHRs && h.mop.latency > 1:
				s.cause = critpath.MSHRFull
			}
			return s
		case isa.ClassStore, isa.ClassSync:
			switch {
			case h.class == isa.ClassSync && isAcquireClass(h.ev.Instr.Op):
				return stall{catSync, critpath.SyncWait}
			case h.waitsOnLoad && !h.done:
				return stall{catRead, critpath.ReadLat}
			case !h.done:
				return stall{catWrite, critpath.DataDep}
			}
			return stall{catWrite, critpath.BufferFull} // store buffer full at retirement
		}
		// ALU/branch/halt not yet executed.
		switch {
		case h.waitsOnLoad:
			return stall{catRead, critpath.ReadLat} // tail of a load-use chain
		case h.depCount > 0:
			return stall{catBranch, critpath.DataDep}
		}
		return stall{catBranch, critpath.BranchRefill} // pipeline refill after redirect or cold start
	}

	// Livelock watchdog and cooperative cancellation, polled on a stride so
	// the per-cycle hot path stays branch-light.
	dog := newWatchdog(cfg.WatchdogBudget)
	dsState := func() string {
		s := fmt.Sprintf("head=%d next=%d decoded=%d/%d memLive=%d storeBuf=%d outstandingMiss=%d fetchBlockedBy=%d",
			headSeq, nextSeq, idx, src.n, memLive, sbCount, port.outMiss, fetchBlockedBy)
		if headSeq < nextSeq {
			h := at(headSeq)
			s += fmt.Sprintf("; ROB head seq=%d op=%s deps=%d dispatched=%t done=%t",
				h.seq, h.ev.Instr.String(), h.depCount, h.dispatched, h.done)
			if h.mop != nil {
				s += fmt.Sprintf(" mop{addrReady=%t issued=%t performed=%t inSB=%t}",
					h.mop.addrReady, h.mop.issued, h.mop.performed, h.mop.inSB)
			}
		}
		return s
	}

	// Event-driven time-skip: when a fully executed cycle is a fixed point —
	// no completion, no retirement, no dispatch, an idle cache port, no
	// decode, exactly one stall charge — every cycle until the next scheduled
	// event behaves identically, so simulated time jumps straight there and
	// the skipped stall cycles are charged in bulk. The accounting below is
	// byte-identical to stepping: same stall categories, same credit-stack
	// contents (run-length encoded), same occupancy sums and histogram
	// observations.
	var (
		skip   = !cfg.NoTimeSkip
		iter   uint64 // loop iterations (not cycles): the poll cadence
		jumped bool   // last iteration time-skipped; poll on landing
	)

	for idx < src.n || headSeq < nextSeq || memLive > 0 {
		if t >= maxDSCycles {
			return Result{}, fmt.Errorf("cpu: DS simulation exceeded %d cycles (stuck?)", maxDSCycles)
		}
		// Polls are strided by loop iteration, not by cycle mask: time-skip
		// jumps land on arbitrary cycle values, so a cycle-masked check could
		// be jumped over indefinitely. A jump landing is polled immediately —
		// a skip that crossed the no-progress budget must fire the watchdog
		// now, not a stride later.
		if iter&(watchdogStride-1) == 0 || jumped {
			jumped = false
			if err := ctxErr(cfg.Ctx); err != nil {
				return Result{}, fmt.Errorf("cpu: DS replay canceled at cycle %d: %w", t, err)
			}
			if err := dog.check("DS", t, dsState); err != nil {
				return Result{}, err
			}
		}
		iter++

		// Interval timeline sampling: at the top of the body for cycle t the
		// account covers cycles 0..t-1 — exactly boundary t.
		acct.sample(t, uint64(headSeq))

		prevIdx := idx

		// Phase 1: completions scheduled for this cycle.
		popped := false
		for len(evq) > 0 && evq[0].at <= t {
			popped = true
			e := evq.pop()
			switch e.kind {
			case evDone:
				en := at(e.seq)
				if en.seq != e.seq {
					break // stale (should not happen; entries retire after done)
				}
				en.done = true
				en.doneAt = t
				if en.mispredicted && fetchBlockedBy == e.seq {
					fetchBlockedBy = -1 // decode resumes this cycle
				}
				wake(en)
			case evPerform:
				en := at(e.seq)
				var mop *memOp
				if en.seq == e.seq && en.mop != nil {
					mop = en.mop
				}
				// Retired stores have left the ROB; the port still has them.
				if mop == nil {
					mop = port.lookup(e.seq, e.mem)
				}
				if mop == nil || mop.performed {
					break
				}
				port.perform(mop)
				memLive--
				if mop.inSB {
					sbCount--
				}
				if en.seq == e.seq {
					if en.class == isa.ClassLoad {
						en.done = true
					}
					en.doneAt = t
					wake(en)
				}
			}
		}

		// Phase 2: retire completed instructions from the ROB head. Decode
		// and issue are limited to IssueWidth per cycle (§4.1: "we have
		// limited the decode and issue rate ... to a maximum of 1
		// instruction per cycle") but retirement is not: the reorder buffer
		// deallocates every completed head entry, which is what lets
		// buffered-up computation drain after a long miss resolves.
		retired := 0
		for headSeq < nextSeq {
			h := at(headSeq)
			if !h.headSeen {
				h.headSeen = true
				h.headAt = t
			}
			ok := false
			switch h.class {
			case isa.ClassALU, isa.ClassBranch, isa.ClassHalt:
				ok = h.done
			case isa.ClassLoad:
				ok = h.mop.performed
			case isa.ClassStore:
				if h.done && sbCount < cfg.StoreBufDepth {
					h.mop.inSB = true
					port.ready(h.mop)
					sbCount++
					ok = true
				}
			case isa.ClassSync:
				if isAcquireClass(h.ev.Instr.Op) {
					ok = h.mop.performed && t >= h.headAt+uint64(h.mop.wait)
				} else if h.done && sbCount < cfg.StoreBufDepth {
					h.mop.inSB = true // releases drain through the store buffer
					port.ready(h.mop)
					sbCount++
					ok = true
				}
			}
			if !ok {
				break
			}
			if cfg.Pipe != nil {
				issued := h.issuedAt
				if h.mop != nil && h.mop.issuedAt > issued {
					issued = h.mop.issuedAt // cache-port issue time for loads/acquires
				}
				cfg.Pipe.Record(obs.InstrRecord{
					Seq:        uint64(h.seq),
					PC:         h.ev.PC,
					Disasm:     h.ev.Instr.String(),
					DecodedAt:  h.decodedAt,
					IssuedAt:   issued,
					DoneAt:     h.doneAt,
					RetiredAt:  t,
					Miss:       h.ev.Miss,
					Mispredict: h.mispredicted,
				})
			}
			if cp != nil {
				// Last-arriving edge of the retiring instruction: a head that
				// waited takes the cause of the stall it sat through; one that
				// completed earlier but retired only now was bound by in-order
				// retirement; anything else flowed through busily.
				switch {
				case h.headAt < t:
					acct.edgeLast()
				case h.doneAt < t:
					cp.Edge(critpath.InOrder)
				default:
					cp.Edge(critpath.Busy)
				}
			}
			headSeq++
			retired++
		}
		if retired > 0 {
			dog.last = t
		}

		// Stall attribution: a cycle with no retirement is classified by the
		// blocking reason at the reorder-buffer head and charged as a stall.
		// A cycle that retires k > 1 instructions proves that k-1 of the most
		// recent stall cycles actually overlapped useful buffered work, so
		// the account credits them back as busy, in units of the issue width
		// (one width's worth of retirements = one cycle of useful work). This
		// keeps the busy section equal to the useful cycles, as in Figure 3.
		if retired == 0 {
			acct.charge(classify(), 1)
		} else {
			acct.busy()
			if retired > cfg.IssueWidth {
				acct.credit(retired-cfg.IssueWidth, cfg.IssueWidth)
			}
		}
		acct.occupy(uint64(nextSeq-headSeq), uint64(sbCount), uint64(port.outMiss))
		if acct.reg != nil {
			acct.observe(1)
		}
		if cfg.Progress != nil && t&(obs.PublishEvery-1) == 0 {
			cfg.Progress.Publish(uint64(headSeq), t)
		}

		// Phase 3: dispatch up to IssueWidth ready instructions to FUs.
		dispatched := false
		for n := 0; n < cfg.IssueWidth && len(dispatch) > 0; n++ {
			s := dispatch.pop()
			en := at(s)
			if en.seq != s || en.dispatched {
				n--
				continue
			}
			en.dispatched = true
			en.issuedAt = t
			dispatched = true
			evq.push(dsEvent{at: t + 1, kind: evDone, seq: s})
		}

		// Phase 4: the cache port issues at most one memory access.
		memActive := issueMem(port, t, &cfg, &evq, hist)

		// Phase 5: decode up to IssueWidth instructions into the ROB.
		for n := 0; n < cfg.IssueWidth; n++ {
			if idx >= src.n || fetchBlockedBy >= 0 || nextSeq-headSeq >= window {
				break
			}
			ev, err := src.fetch()
			if err != nil {
				return Result{}, err
			}
			seq := nextSeq
			// Reset the slot field by field: a composite literal that reads
			// the slot's own waiters would be built in a temporary and copied.
			en := at(seq)
			waiters := en.waiters[:0]
			*en = dsEntry{}
			en.seq, en.ev, en.class, en.kind = seq, ev, ev.Class(), consistency.KindOf(ev.Instr.Op)
			en.decodedAt, en.waiters = t, waiters

			if !cfg.IgnoreDataDeps {
				for _, r := range ev.Instr.SrcRegs(srcBuf[:0]) {
					w := lastWriter[r]
					if producerPending(w) {
						p := at(w)
						p.waiters = append(p.waiters, seq)
						en.depCount++
						if p.class == isa.ClassLoad {
							en.waitsOnLoad = true
						} else if p.waitsOnLoad {
							en.waitsOnLoad = true // transitive load-use chain
						}
					}
				}
			}
			if ev.Instr.HasDest() {
				lastWriter[ev.Instr.Dst] = seq
			}

			switch en.class {
			case isa.ClassALU, isa.ClassHalt:
				if en.depCount == 0 {
					dispatch.push(seq)
				}
			case isa.ClassBranch:
				if isa.IsCondBranch(ev.Instr.Op) {
					if pred.Predict(ev.PC, ev.Taken) != ev.Taken {
						en.mispredicted = true
						mispredicts++
						fetchBlockedBy = seq
					}
					pred.Update(ev.PC, ev.Taken)
				}
				if en.depCount == 0 {
					dispatch.push(seq)
				}
			case isa.ClassLoad, isa.ClassStore, isa.ClassSync:
				if scratch.ops.full() {
					scratch.ops.advance(port.low(headSeq))
				}
				en.mop = scratch.ops.newMemOp(seq, ev, t)
				memLive++
				port.add(en.mop)
				switch {
				case isAcquireClass(ev.Instr.Op): // acquires carry no register deps
					en.mop.addrReady = true
					port.ready(en.mop)
				case en.depCount > 0: // makeReady takes it from here
				case en.class == isa.ClassLoad:
					en.mop.addrReady = true
					port.ready(en.mop)
				default:
					dispatch.push(seq) // stores and releases: compute address+data, then retire to SB
				}
			}
			nextSeq++
			idx++
		}

		// Time-skip: this cycle was a fixed point iff nothing above mutated
		// machine state beyond the single stall charge. If so, find the next
		// cycle at which anything can change and jump there, charging the
		// quiet stretch in bulk. With no scheduled event the machine is
		// genuinely livelocked: fall through to single-cycle stepping so the
		// watchdog measures the stagnation and kills the replay.
		if skip && retired == 0 && !popped && !dispatched && !memActive && idx == prevIdx {
			next := ^uint64(0)
			if len(evq) > 0 {
				next = evq[0].at // earliest FU completion or memory perform
			}
			if headSeq < nextSeq {
				// A performed acquire at the ROB head retires only once its
				// contention wall headAt+W has elapsed — a purely
				// time-triggered transition.
				if h := at(headSeq); h.class == isa.ClassSync && isAcquireClass(h.ev.Instr.Op) &&
					h.mop.performed {
					if w := h.headAt + uint64(h.mop.wait); w > t && w < next {
						next = w
					}
				}
			}
			if cfg.Prefetch && cfg.MSHRs > 0 {
				// A prefetched access blocked on exhausted MSHRs becomes
				// issuable when its in-flight prefetch decays the remaining
				// latency to 1, which bypasses the MSHR gate: at
				// prefetchedAt+latency-1.
				for _, m := range port.cands {
					if m.prefetched && m.latency > 1 {
						if th := m.prefetchedAt + uint64(m.latency) - 1; th > t && th < next {
							next = th
						}
					}
				}
			}
			if next != ^uint64(0) && next > maxDSCycles {
				next = maxDSCycles // the absolute guard fires at the same cycle as stepping
			}
			if next != ^uint64(0) && next > t+1 {
				// The quiet cycles t+1 .. next-1 repeat this cycle exactly:
				// its stall charge, occupancies and no retirement.
				acct.repeat(next-t-1, uint64(headSeq))
				if cfg.Progress != nil && t/obs.PublishEvery != next/obs.PublishEvery {
					cfg.Progress.Publish(uint64(headSeq), next)
				}
				t = next
				jumped = true
				continue
			}
		}

		t++
	}

	res := Result{
		Breakdown:     acct.finish(t, uint64(headSeq)),
		Instructions:  uint64(src.n),
		Mispredicts:   mispredicts,
		Prefetches:    port.prefetches,
		ReadMissDelay: hist,
	}
	if t > 0 {
		res.AvgOccupancy = float64(acct.occ[0]) / float64(t)
	}
	cfg.Progress.Publish(uint64(headSeq), t)
	publishResult(&cfg, res)
	return res, nil
}

// makeReady transitions an entry whose dependences are satisfied: a load
// can now go to the cache port; anything else but an acquire (at the port
// since decode) is dispatched to a functional unit.
func makeReady(e *dsEntry, dispatch *seqHeap, port *memPort) {
	switch {
	case e.class == isa.ClassLoad:
		e.mop.addrReady = true
		port.ready(e.mop)
	case e.class == isa.ClassSync && isAcquireClass(e.ev.Instr.Op):
	default:
		dispatch.push(e.seq)
	}
}

// issueMem models the single cache port of SSBR, SS and DS: it issues the
// oldest ready access that the consistency model permits, judging each
// candidate against the oldest unperformed access of each kind (the port's
// front summary, read once per call since nothing performs while the port
// decides), and schedules its perform event on evq. A load forwards from
// an older unperformed store to its address where the model lets loads
// bypass stores. The rest are DS policies, which the static models turn off
// by passing a cfg with only Model set and a nil hist: with an MSHR bound
// an MSHR-blocked miss stays a candidate and so keeps counting as pending
// for the younger ones; with prefetching an otherwise idle port issues a
// non-binding prefetch for the oldest consistency-blocked miss instead;
// speculative loads issue past the model; and hist records each read
// miss's decode-to-issue delay. It reports whether it changed machine state
// (issued an access or started a prefetch) — an idle port is one of the
// conditions for a cycle to be a time-skip fixed point.
func issueMem(port *memPort, t uint64, cfg *Config, evq *eventHeap, hist *obs.LocalHistogram) bool {
	if len(port.cands) == 0 {
		return false
	}
	f := port.front
	var pfCand *memOp
	// blocked has bit 1<<kind for each kind the model refused at some
	// candidate. The summary only grows with seq, so every younger
	// candidate of a refused kind is refused too. Once every kind present
	// is refused and no prefetch can start, nothing younger can issue —
	// unless refused loads issue speculatively.
	var blocked uint16
	for i, m := range port.cands {
		if port.present&^blocked == 0 && !cfg.SpeculativeLoads && (pfCand != nil || !cfg.Prefetch || port.unfetched == 0) {
			break
		}
		allowed := blocked&(1<<m.kind) == 0 && consistency.MayIssue(cfg.Model, m.kind, f.pending(m.seq))
		if !allowed {
			blocked |= 1 << m.kind
		}
		if !allowed && cfg.SpeculativeLoads && m.kind == consistency.Load {
			// Speculative read ([8]): issue anyway; in-order retirement
			// plus the (unmodelled, rare) rollback preserve the model.
			allowed = true
		}
		if allowed {
			forwarded := m.kind == consistency.Load &&
				(consistency.AllowsLoadBypass(cfg.Model) || cfg.SpeculativeLoads) &&
				port.forwardable(m.seq, m.addr)
			lat := uint64(m.latency)
			if forwarded {
				lat = 1 // store-buffer forwarding satisfies the load locally
			} else if m.prefetched {
				// The prefetch has been bringing the line in; only the
				// remaining latency is exposed.
				if el := t - m.prefetchedAt; el >= lat-1 {
					lat = 1
				} else {
					lat -= el
				}
			}
			if lat > 1 && cfg.MSHRs > 0 && port.outMiss >= cfg.MSHRs {
				continue // MSHRs exhausted: this miss cannot start yet
			}
			if m.kind == consistency.Load && m.miss && !forwarded {
				hist.Observe(t - m.decodedAt)
			}
			m.issued, m.issuedAt, m.performAt = true, t, t+lat
			if lat > 1 {
				m.usedMSHR = true // a miss holds an MSHR until it performs
				port.outMiss++
			}
			port.issue(i)
			evq.push(dsEvent{at: m.performAt, kind: evPerform, mem: m.kind, seq: m.seq})
			return true
		}
		if cfg.Prefetch && pfCand == nil && m.miss && !m.prefetched {
			pfCand = m // oldest ready access blocked purely by consistency
		}
	}
	if pfCand != nil {
		// Non-binding prefetch: warms the cache without performing the
		// access, so no consistency constraint applies (reference [8]).
		port.prefetch(pfCand, t)
		return true
	}
	return false
}
