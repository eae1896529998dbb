package cpu

import (
	"fmt"

	"dynsched/internal/consistency"
	"dynsched/internal/critpath"
	"dynsched/internal/isa"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

// memOp is an in-flight memory or synchronization access shared by the
// static and dynamic processor models.
type memOp struct {
	seq     int // program-order sequence (trace index)
	instr   isa.Instr
	pc      int32
	kind    consistency.Kind
	addr    uint64
	latency uint32
	wait    uint32
	miss    bool

	issued    bool
	performed bool
	issuedAt  uint64 // cycle the cache port accepted the access (tracing)
	performAt uint64
	wall      uint64 // acquires: earliest completion time (stall start + W)
	destReg   uint8  // loads: destination register (SS first-use tracking)

	// DS-only bookkeeping.
	addrReady bool   // operands available; the access may be issued
	inSB      bool   // store/release has retired into the store buffer
	usedMSHR  bool   // the access occupies a miss-status register
	decodedAt uint64 // decode cycle (read-miss issue-delay histogram)

	prefetched   bool   // a non-binding prefetch is in flight
	prefetchedAt uint64 // when the prefetch was issued
}

// opWindow is the program-ordered set of decoded-but-unperformed accesses
// against which consistency constraints are evaluated. wake is a min-heap
// of the performAt cycles of issued-but-unperformed accesses: the
// completion scan and the time-skip next-event computation read its
// minimum instead of scanning the window, so both are O(1) when nothing
// completes. The heap is exactly that multiset — entries are pushed when
// the port issues and popped when the completion scan performs them — so
// consulting it is byte-identical to the scans it replaces.
type opWindow struct {
	ops  []*memOp
	wake []uint64
}

// wakePush inserts a completion time into the wake heap.
func (w *opWindow) wakePush(at uint64) {
	w.wake = append(w.wake, at)
	h := w.wake
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[i] >= h[p] {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// wakePop removes the minimum completion time from the wake heap.
func (w *opWindow) wakePop() {
	h := w.wake
	n := len(h) - 1
	h[0] = h[n]
	w.wake = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h[l] < h[s] {
			s = l
		}
		if r < n && h[r] < h[s] {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

func (w *opWindow) add(op *memOp) { w.ops = append(w.ops, op) }

// compact removes performed accesses from the front and interior.
func (w *opWindow) compact() {
	live := w.ops[:0]
	for _, op := range w.ops {
		if !op.performed {
			live = append(live, op)
		}
	}
	// Zero the tail so the backing array does not pin dead entries.
	for i := len(live); i < len(w.ops); i++ {
		w.ops[i] = nil
	}
	w.ops = live
}

// pendingOf adds op to the consistency.Pending summary p.
func pendingOf(op *memOp, p *consistency.Pending) {
	if op.kind&consistency.Load != 0 {
		p.Loads++
	}
	if op.kind&consistency.Store != 0 {
		p.Stores++
	}
	if op.kind&consistency.Acquire != 0 {
		p.Acquires++
	}
	if op.kind&consistency.Release != 0 {
		p.Releases++
	}
}

// stallOn classifies a stall on blocked, an unperformed access. If it has
// issued, the processor is genuinely waiting for memory: the stall is the
// access's own latency. If it has not issued, it is held back by
// consistency-model ordering, and the cycle is charged to the category of
// the oldest unperformed access holding it up (so, e.g., a load that may not
// issue past an incomplete write under SC charges write time, matching the
// paper's Figure 3 attribution).
func (w *opWindow) stallOn(blocked *memOp) stall {
	if blocked.issued {
		return accessStall(blocked.kind)
	}
	culprit := blocked
	for _, op := range w.ops {
		if !op.performed {
			culprit = op
			break
		}
	}
	return stall{accessStall(culprit.kind).cat, critpath.Consistency}
}

// forwardable reports whether an older unperformed store to the same word
// address precedes target in the window (store-buffer forwarding).
func (w *opWindow) forwardable(target *memOp) bool {
	for _, op := range w.ops {
		if op == target {
			return false
		}
		if op.kind&consistency.Store != 0 && !op.performed && op.addr == target.addr {
			return true
		}
	}
	return false
}

// issueOne models the single cache port: it issues at most one eligible
// access this cycle, scanning in program order so older accesses have
// priority. eligible filters candidates (e.g. stores must be in the write
// buffer). It returns the issued op, or nil.
func (w *opWindow) issueOne(t uint64, model consistency.Model, eligible func(*memOp) bool) *memOp {
	var pend consistency.Pending
	for _, op := range w.ops {
		if op.performed {
			continue
		}
		if !op.issued && eligible(op) && consistency.MayIssue(model, op.kind, pend) {
			op.issued = true
			op.issuedAt = t
			lat := uint64(op.latency)
			if op.kind == consistency.Load && consistency.AllowsLoadBypass(model) && w.forwardable(op) {
				lat = 1 // forwarded from the store buffer
			}
			op.performAt = t + lat
			w.wakePush(op.performAt)
			return op
		}
		if !op.performed {
			pendingOf(op, &pend)
		}
	}
	return nil
}

// runStatic replays src through a statically scheduled processor. With
// blocking reads (SSBR) reads stall the processor until they perform;
// writes and releases enter a WriteBufDepth-deep write buffer drained in
// FIFO order subject to the consistency model; acquires stall until they
// complete. With non-blocking reads (SS) loads also enter a
// ReadBufDepth-deep read buffer and the processor stalls only at the first
// instruction that uses a pending return value — "the stall is delayed up
// to the first use of the return value" (§4.1).
func runStatic(src *Source, cfg Config, nonBlockingReads bool) (Result, error) {
	scratch := getStaticScratch()
	var (
		acct      = newAccount(&cfg)
		win       = opWindow{ops: scratch.win, wake: scratch.wake}
		wbCount   int // stores + releases in the write buffer
		rbCount   int // pending loads in the read buffer (SS)
		blockLoad *memOp
		blockAcq  *memOp
		regOwner  [isa.NumRegs]*memOp // SS: pending load producing each register
		srcBuf    [2]uint8
		t         uint64
		idx       int
		curEv     *trace.Event // current decode slot, fetched once per accept
	)
	defer func() {
		scratch.win, scratch.wake = win.ops, win.wake
		scratch.release()
	}()

	eligible := func(op *memOp) bool { return true } // all window entries are in flight

	// newOp hands out the access record for e, decoded now. Every live
	// access is in the window (see opRing).
	newOp := func(e *trace.Event) *memOp {
		if scratch.ops.full() {
			low := idx
			if len(win.ops) > 0 {
				low = win.ops[0].seq
			}
			scratch.ops.advance(low)
		}
		op := scratch.ops.newMemOp(idx, e)
		op.decodedAt = t
		return op
	}

	// Observability: the account integrates the occupancy of the in-flight
	// access window, the write buffer and the read buffer, and histograms
	// the two buffers when metrics are enabled. Per-instruction pipeline
	// records: non-memory instructions occupy the in-order pipeline for
	// exactly their accept cycle; memory and synchronization accesses are
	// recorded when they perform, spanning decode → port issue → completion.
	acct.histogram(&cfg, 1, "writebuf.occupancy", bufferBuckets)
	acct.histogram(&cfg, 2, "readbuf.occupancy", bufferBuckets)
	recordAccept := func(e *trace.Event) {
		if cfg.Pipe != nil {
			cfg.Pipe.Record(obs.InstrRecord{
				Seq: uint64(idx), PC: e.PC, Disasm: e.Instr.String(),
				DecodedAt: t, IssuedAt: t, DoneAt: t, RetiredAt: t,
			})
		}
	}

	// accept retires the decode slot's instruction into the pipeline: one
	// busy cycle. The static pipeline accepts at most one instruction per
	// cycle, so an instruction accepted right after the previous one never
	// waited (busy edge); anything else waited through the stall cycles
	// just charged, whose cause is its last-arriving edge.
	var (
		anyAccept   bool
		lastAcceptT uint64
	)
	accept := func() {
		if cfg.CritPath != nil {
			if !anyAccept || t <= lastAcceptT+1 {
				cfg.CritPath.Edge(critpath.Busy)
			} else {
				acct.edgeLast()
			}
			anyAccept, lastAcceptT = true, t
		}
		acct.busy()
		idx++
	}

	model := "SSBR"
	if nonBlockingReads {
		model = "SS"
	}
	dog := newWatchdog(cfg.WatchdogBudget)
	staticState := func() string {
		s := fmt.Sprintf("accepted=%d/%d window=%d writeBuf=%d readBuf=%d",
			idx, src.n, len(win.ops), wbCount, rbCount)
		if blockAcq != nil {
			s += fmt.Sprintf("; blocked on acquire seq=%d performed=%t wall=%d",
				blockAcq.seq, blockAcq.performed, blockAcq.wall)
		}
		if blockLoad != nil {
			s += fmt.Sprintf("; blocked on load seq=%d issued=%t", blockLoad.seq, blockLoad.issued)
		}
		if len(win.ops) > 0 {
			h := win.ops[0]
			s += fmt.Sprintf("; oldest access seq=%d op=%s issued=%t performed=%t",
				h.seq, h.instr.Op, h.issued, h.performed)
		}
		return s
	}

	// Event-driven time-skip: a cycle that completes nothing, accepts
	// nothing, issues nothing, and leaves the blocking pointers untouched is
	// a fixed point of the machine — every following cycle charges the same
	// single stall category until the next scheduled event (the earliest
	// in-flight completion, or a completed acquire's wall). Jump simulated
	// time there directly and charge the stretch in bulk; the accounting is
	// byte-identical to stepping every cycle.
	var (
		skip   = !cfg.NoTimeSkip
		iter   uint64 // loop iterations (not cycles): the poll cadence
		jumped bool   // last iteration time-skipped; poll on landing
	)

	for idx < src.n || len(win.ops) > 0 {
		// Iteration-strided polls (plus one at every jump landing): a
		// cycle-masked check could be jumped over by time-skip.
		if iter&(watchdogStride-1) == 0 || jumped {
			jumped = false
			if err := ctxErr(cfg.Ctx); err != nil {
				return Result{}, fmt.Errorf("cpu: %s replay canceled at cycle %d: %w", model, t, err)
			}
			if err := dog.check(model, t, staticState); err != nil {
				return Result{}, err
			}
		}
		iter++

		acct.sample(t, uint64(idx))

		prevIdx := idx
		prevAcq, prevLoad := blockAcq, blockLoad

		// Phase 1: completions. The wake heap's minimum is the earliest
		// in-flight completion, so when it is still in the future the scan
		// below could not mark anything performed and is skipped outright —
		// that is what makes a quiet stalled cycle O(1) instead of O(window).
		changed := false
		if len(win.wake) > 0 && win.wake[0] <= t {
			for _, op := range win.ops {
				if op.issued && !op.performed && op.performAt <= t {
					op.performed = true
					changed = true
					if cfg.Pipe != nil {
						cfg.Pipe.Record(obs.InstrRecord{
							Seq: uint64(op.seq), PC: op.pc, Disasm: op.instr.String(),
							DecodedAt: op.decodedAt, IssuedAt: op.issuedAt,
							DoneAt: op.performAt, RetiredAt: op.performAt,
							Miss: op.miss,
						})
					}
					switch {
					case op.kind&(consistency.Store|consistency.Release) != 0 && op.kind&consistency.Acquire == 0:
						wbCount-- // data stores and releases drain from the write buffer
					case op.kind == consistency.Load:
						rbCount--
						if regOwner[op.destReg] == op {
							regOwner[op.destReg] = nil
						}
					}
				}
			}
			for len(win.wake) > 0 && win.wake[0] <= t {
				win.wakePop()
			}
		}
		if changed {
			win.compact()
		}

		// Phase 2: processor (at most one instruction per cycle). The cycle
		// either accepts the decode slot's instruction or stalls on st.
		var st stall
		stalled := false
		if blockAcq != nil {
			if blockAcq.performed && t >= blockAcq.wall {
				blockAcq = nil
			} else {
				st, stalled = stall{catSync, critpath.SyncWait}, true
			}
		}
		if !stalled && blockLoad != nil {
			if blockLoad.performed {
				blockLoad = nil
			} else {
				st, stalled = win.stallOn(blockLoad), true
			}
		}
		if !stalled && idx < src.n {
			if curEv == nil {
				var ferr error
				if curEv, ferr = src.fetch(); ferr != nil {
					return Result{}, ferr
				}
			}
			e := curEv
			// SS stalls at the first use of a pending load's value.
			if p := pendingProducer(e, &regOwner, srcBuf[:0]); nonBlockingReads && p != nil {
				st, stalled = win.stallOn(p), true
			} else {
				switch e.Class() {
				case isa.ClassALU, isa.ClassBranch, isa.ClassHalt:
					recordAccept(e)
					accept()
				case isa.ClassLoad:
					if nonBlockingReads && rbCount >= cfg.ReadBufDepth {
						st, stalled = stall{catRead, critpath.BufferFull}, true
						break
					}
					op := newOp(e)
					win.add(op)
					if nonBlockingReads {
						rbCount++
						regOwner[op.destReg] = op
					} else {
						blockLoad = op
					}
					accept()
				case isa.ClassStore:
					if wbCount >= cfg.WriteBufDepth {
						st, stalled = stall{catWrite, critpath.BufferFull}, true
						break
					}
					op := newOp(e)
					win.add(op)
					wbCount++
					accept()
				case isa.ClassSync:
					op := newOp(e)
					if isAcquireClass(e.Instr.Op) {
						op.wall = t + uint64(op.wait)
						win.add(op)
						blockAcq = op
						accept()
					} else if wbCount >= cfg.WriteBufDepth {
						st, stalled = stall{catWrite, critpath.BufferFull}, true
					} else {
						win.add(op) // release drains through the write buffer
						wbCount++
						accept()
					}
				}
			}
		} else if !stalled && len(win.ops) > 0 {
			// Trace exhausted: draining the window. Charge by the oldest
			// unperformed access.
			st, stalled = win.stallOn(win.ops[0]), true
		}
		if stalled {
			acct.charge(st, 1)
		}

		// Phase 3: cache port issues one access.
		issued := win.issueOne(t, cfg.Model, eligible)

		if idx != prevIdx {
			curEv = nil // accepted: the next accept fetches the next event
		}
		if changed || idx != prevIdx {
			dog.last = t
		}

		acct.occupy(uint64(len(win.ops)), uint64(wbCount), uint64(rbCount))
		if acct.reg != nil {
			acct.observe(1)
		}
		if cfg.Progress != nil && t&(obs.PublishEvery-1) == 0 {
			cfg.Progress.Publish(uint64(idx), t)
		}

		// Time-skip: the cycle was a fixed point iff nothing mutated beyond
		// a single stall charge. The next state change is time-triggered: an
		// in-flight access completing, or a completed acquire's wall
		// elapsing. issueOne is time-invariant — if the port issued nothing
		// at t it issues nothing at any later cycle of the same state — so
		// with no scheduled event the machine is livelocked and falls back
		// to stepping, where the watchdog measures the stagnation.
		if skip && stalled && !changed && idx == prevIdx && issued == nil &&
			blockAcq == prevAcq && blockLoad == prevLoad {
			// The wake heap's minimum is exactly the min performAt over
			// issued-unperformed accesses (all > t after phase 1).
			next := ^uint64(0)
			if len(win.wake) > 0 {
				next = win.wake[0]
			}
			// A performed acquire has been compacted out of the window
			// but still blocks the processor until its wall.
			if blockAcq != nil && blockAcq.performed && blockAcq.wall > t && blockAcq.wall < next {
				next = blockAcq.wall
			}
			if next != ^uint64(0) && next > t+1 {
				// The quiet cycles t+1 .. next-1 repeat this cycle exactly.
				acct.repeat(next-t-1, uint64(idx))
				if cfg.Progress != nil && t/obs.PublishEvery != next/obs.PublishEvery {
					cfg.Progress.Publish(uint64(idx), next)
				}
				t = next
				jumped = true
				continue
			}
		}

		t++
	}

	res := Result{Breakdown: acct.finish(t, uint64(idx)), Instructions: uint64(src.n)}
	cfg.Progress.Publish(uint64(idx), t)
	publishResult(&cfg, res)
	return res, nil
}

// pendingProducer returns the outstanding load whose value e needs, or nil
// (the SS first-use stall).
func pendingProducer(e *trace.Event, owner *[isa.NumRegs]*memOp, buf []uint8) *memOp {
	for _, r := range e.Instr.SrcRegs(buf) {
		if op := owner[r]; op != nil {
			return op
		}
	}
	return nil
}
