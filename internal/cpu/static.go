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
	usedMSHR  bool   // a miss holding an MSHR until it performs
	destReg   uint8  // loads: destination register (SS first-use tracking)
	decodedAt uint64 // decode cycle (tracing, read-miss issue-delay histogram)
	issuedAt  uint64 // cycle the cache port accepted the access (tracing)
	performAt uint64
	wall      uint64 // SSBR/SS acquires: earliest completion time (stall start + W)

	// DS-only bookkeeping.
	addrReady    bool   // operands available; the access may be issued
	inSB         bool   // store/release has retired into the store buffer
	prefetched   bool   // a non-binding prefetch is in flight
	prefetchedAt uint64 // when the prefetch was issued
}

// stallOn classifies a stall on blocked, an unperformed access. If it has
// issued, the processor is genuinely waiting for memory: the stall is the
// access's own latency. If it has not issued, it is held back by
// consistency-model ordering, and the cycle is charged to the category of
// the oldest unperformed access holding it up (so, e.g., a load that may not
// issue past an incomplete write under SC charges write time, matching the
// paper's Figure 3 attribution).
func stallOn(port *memPort, blocked *memOp) stall {
	if blocked.issued {
		return accessStall(blocked.kind)
	}
	return stall{accessStall(port.oldest().kind).cat, critpath.Consistency}
}

// runStatic replays src through a statically scheduled processor. With
// blocking reads (SSBR) reads stall the processor until they perform;
// writes and releases enter a WriteBufDepth-deep write buffer drained in
// FIFO order subject to the consistency model; acquires stall until they
// complete. With non-blocking reads (SS) loads also enter a
// ReadBufDepth-deep read buffer and the processor stalls only at the first
// instruction that uses a pending return value — "the stall is delayed up
// to the first use of the return value" (§4.1). Every access is ready when
// it is decoded and goes through the same memory port, issue call and
// perform events as DS, with the DS-only policies off.
func runStatic(src *Source, cfg Config, nonBlockingReads bool) (Result, error) {
	scratch := getStaticScratch()
	var (
		acct      = newAccount(&cfg)
		port      = &scratch.port
		evq       = scratch.evq
		portCfg   = Config{Model: cfg.Model} // issueMem with the DS policies off
		live      int                        // unperformed accesses
		wbCount   int                        // stores + releases in the write buffer
		rbCount   int                        // pending loads in the read buffer (SS)
		blockLoad *memOp
		blockAcq  *memOp
		regOwner  [isa.NumRegs]*memOp // SS: pending load producing each register
		srcBuf    [2]uint8
		t         uint64
		idx       int
		curEv     *trace.Event // current decode slot, fetched once per accept
	)
	defer func() {
		scratch.evq = evq
		scratch.release()
	}()

	// enter hands out the access record for e, decoded now, and puts it in
	// the port, ready to issue.
	enter := func(e *trace.Event) *memOp {
		if scratch.ops.full() {
			scratch.ops.advance(port.low(idx))
		}
		op := scratch.ops.newMemOp(idx, e, t)
		port.add(op)
		port.ready(op)
		live++
		return op
	}

	// Observability: the account integrates the occupancy of the in-flight
	// accesses, the write buffer and the read buffer, and histograms
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
			idx, src.n, live, wbCount, rbCount)
		if blockAcq != nil {
			s += fmt.Sprintf("; blocked on acquire seq=%d performed=%t wall=%d",
				blockAcq.seq, blockAcq.performed, blockAcq.wall)
		}
		if blockLoad != nil {
			s += fmt.Sprintf("; blocked on load seq=%d issued=%t", blockLoad.seq, blockLoad.issued)
		}
		if h := port.oldest(); h != nil {
			s += fmt.Sprintf("; oldest access seq=%d op=%s issued=%t performed=%t",
				h.seq, h.instr.Op, h.issued, h.performed)
		}
		return s
	}

	// Event-driven time-skip: a cycle that completes nothing, accepts
	// nothing, issues nothing, and leaves the blocking pointers untouched is
	// a fixed point of the machine — every following cycle charges the same
	// single stall category until the next scheduled event (the earliest
	// perform event, or a completed acquire's wall). Jump simulated time
	// there directly and charge the stretch in bulk; the accounting is
	// byte-identical to stepping every cycle.
	var (
		skip   = !cfg.NoTimeSkip
		iter   uint64 // loop iterations (not cycles): the poll cadence
		jumped bool   // last iteration time-skipped; poll on landing
	)

	for idx < src.n || live > 0 {
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

		// Phase 1: the accesses whose perform events fall due, in program
		// order (every access issues with a latency of at least one cycle,
		// so each event is popped at exactly its cycle, ordered by seq).
		changed := false
		for len(evq) > 0 && evq[0].at <= t {
			e := evq.pop()
			op := port.lookup(e.seq, e.mem)
			port.perform(op)
			live--
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
				st, stalled = stallOn(port, blockLoad), true
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
			var p *memOp
			if nonBlockingReads {
				p = pendingProducer(e, &regOwner, srcBuf[:0])
			}
			if p != nil {
				st, stalled = stallOn(port, p), true
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
					op := enter(e)
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
					enter(e)
					wbCount++
					accept()
				case isa.ClassSync:
					if isAcquireClass(e.Instr.Op) {
						op := enter(e)
						op.wall = t + uint64(op.wait)
						blockAcq = op
						accept()
					} else if wbCount >= cfg.WriteBufDepth {
						st, stalled = stall{catWrite, critpath.BufferFull}, true
					} else {
						enter(e) // release drains through the write buffer
						wbCount++
						accept()
					}
				}
			}
		} else if !stalled && live > 0 {
			// Trace exhausted: draining the port. Charge by the oldest
			// unperformed access.
			st, stalled = stallOn(port, port.oldest()), true
		}
		if stalled {
			acct.charge(st, 1)
		}

		// Phase 3: the cache port issues at most one access.
		issued := len(port.cands) > 0 && issueMem(port, t, &portCfg, &evq, nil)

		if idx != prevIdx {
			curEv = nil // accepted: the next accept fetches the next event
		}
		if changed || idx != prevIdx {
			dog.last = t
		}

		acct.occupy(uint64(live), uint64(wbCount), uint64(rbCount))
		if acct.reg != nil {
			acct.observe(1)
		}
		if cfg.Progress != nil && t&(obs.PublishEvery-1) == 0 {
			cfg.Progress.Publish(uint64(idx), t)
		}

		// Time-skip: the cycle was a fixed point iff nothing mutated beyond
		// a single stall charge. The next state change is time-triggered: an
		// access performing, or a completed acquire's wall elapsing.
		// issueMem is time-invariant with the DS policies off — if the port
		// issued nothing at t it issues nothing at any later cycle of the
		// same state — so with no scheduled event the machine is livelocked
		// and falls back to stepping, where the watchdog measures the
		// stagnation.
		if skip && stalled && !changed && idx == prevIdx && !issued &&
			blockAcq == prevAcq && blockLoad == prevLoad {
			next := ^uint64(0)
			if len(evq) > 0 {
				next = evq[0].at // the earliest perform, > t after phase 1
			}
			// A performed acquire has left the port but still blocks the
			// processor until its wall.
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
