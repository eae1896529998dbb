package cpu

import (
	"fmt"

	"dynsched/internal/isa"
	"dynsched/internal/trace"
)

// RunMC models a multiple-hardware-contexts processor — the principal
// competitive latency-tolerance technique the paper discusses in §5
// (Weber & Gupta; APRIL; HEP): a simple in-order, blocking-read pipeline
// that holds several threads' register sets and switches to another ready
// context whenever the running one takes a long-latency event (a read miss
// or an acquire), paying switchPenalty cycles per switch.
//
// Each context executes its own processor's trace from the same
// multiprocessor run (tango with RecordAll). Writes are assumed buffered
// under release consistency, as in the tango machine, so stores and
// releases cost one cycle. The result's breakdown attributes cycles where
// no context is ready to the blocking reason of the context that becomes
// ready soonest; Busy counts cycles doing useful work and Other counts
// context-switch overhead.
//
// MCResult.Utilization is the headline number of the multiple-contexts
// literature: the fraction of cycles spent on useful work.
type MCResult struct {
	Result
	Contexts    int
	Switches    uint64
	Utilization float64
}

type mcCtx struct {
	events  []trace.Event
	idx     int
	readyAt uint64 // context is blocked until this cycle
	reason  uint8  // stall category while blocked
}

// RunMC interleaves the given traces on one pipeline. switchPenalty is the
// cost in cycles of resuming a different context (1-16 in the literature;
// APRIL ≈ 10).
func RunMC(traces []*trace.Trace, switchPenalty int) (MCResult, error) {
	if len(traces) == 0 {
		return MCResult{}, fmt.Errorf("cpu: RunMC needs at least one trace")
	}
	if switchPenalty < 0 {
		return MCResult{}, fmt.Errorf("cpu: negative switch penalty")
	}
	ctxs := make([]*mcCtx, len(traces))
	var instructions uint64
	for i, tr := range traces {
		if tr == nil {
			return MCResult{}, fmt.Errorf("cpu: RunMC trace %d is nil", i)
		}
		ctxs[i] = &mcCtx{events: tr.Events}
		instructions += uint64(len(tr.Events))
	}

	var (
		acct     account
		t        uint64
		active   = 0
		switches uint64
		done     int
	)

	for done < len(ctxs) {
		if t >= maxDSCycles {
			return MCResult{}, fmt.Errorf("cpu: MC simulation exceeded %d cycles", maxDSCycles)
		}
		c := ctxs[active]
		if c.idx < len(c.events) && c.readyAt <= t {
			// Execute one instruction on the active context.
			e := &c.events[c.idx]
			c.idx++
			acct.busy()
			t++
			if c.idx == len(c.events) {
				done++
			}
			switch e.Class() {
			case isa.ClassLoad:
				if e.Miss {
					// Block this context; the next loop iteration finds
					// another ready context (switch-on-miss).
					c.readyAt = t - 1 + uint64(e.Latency)
					c.reason = catRead
				}
			case isa.ClassSync:
				if isAcquireClass(e.Instr.Op) {
					c.readyAt = t - 1 + uint64(e.Wait) + uint64(e.Latency)
					c.reason = catSync
				}
				// Releases drain through the write buffer: 1 cycle.
			}
			continue
		}
		// Active context is blocked or finished: find another ready one
		// (round-robin from the next context).
		next := -1
		soonest, soonestAt := -1, ^uint64(0)
		for i := range ctxs {
			j := (active + 1 + i) % len(ctxs)
			cj := ctxs[j]
			if cj.idx >= len(cj.events) {
				continue
			}
			if cj.readyAt <= t {
				next = j
				break
			}
			if cj.readyAt < soonestAt {
				soonest, soonestAt = j, cj.readyAt
			}
		}
		switch {
		case next >= 0:
			if next != active {
				switches++
				// Context-switch overhead.
				acct.charge(stall{cat: catOther}, uint64(switchPenalty))
				t += uint64(switchPenalty)
				active = next
			} else {
				// Only the active context remains and it is ready.
			}
		case soonest >= 0:
			// Everyone is blocked: stall until the soonest wakes, charged to
			// its blocking reason.
			acct.charge(stall{cat: ctxs[soonest].reason}, soonestAt-t)
			t = soonestAt
			active = soonest
		default:
			done = len(ctxs) // nothing left anywhere
		}
	}

	bd := acct.breakdown()
	res := MCResult{
		Result:   Result{Breakdown: bd, Instructions: instructions},
		Contexts: len(ctxs),
		Switches: switches,
	}
	if total := bd.Total(); total > 0 {
		res.Utilization = float64(bd.Busy) / float64(total)
	}
	return res, nil
}
