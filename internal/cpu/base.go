package cpu

import (
	"dynsched/internal/critpath"
	"dynsched/internal/isa"
)

// runBase replays src through the BASE processor of Figure 3: an in-order
// machine "which completes each operation before initiating the next one
// (i.e., no overlap in execution of instructions and memory operations)".
//
// Every instruction costs one busy cycle; memory operations add their full
// transfer latency minus the overlapping execute cycle; synchronization
// operations add their wait and transfer components. The consistency model
// is irrelevant for BASE because nothing overlaps anyway, so of cfg it
// reads only the observability hooks: metrics, critical path and timeline.
// With nothing overlapping the attribution is exact: every stall cycle's
// cause is the instruction's own memory or synchronization latency, and so
// is its last-arriving edge (busy when it added no stall). BASE charges each
// instruction's cycles in one step, so the timeline snapshots a boundary
// inside that stretch at its exact cycle.
func runBase(src *Source, cfg Config) (Result, error) {
	acct := newAccount(&cfg)
	for i := 0; i < src.n; i++ {
		e, err := src.fetch()
		if err != nil {
			return Result{}, err
		}
		var (
			s stall
			d uint64
		)
		switch e.Class() {
		case isa.ClassLoad:
			d = uint64(e.Latency) - 1
			s = stall{catRead, critpath.ReadLat}
		case isa.ClassStore:
			d = uint64(e.Latency) - 1
			s = stall{catWrite, critpath.WriteLat}
		case isa.ClassSync:
			// Acquires (lock, event wait, barrier) stall for their wait and
			// transfer components; releases (unlock, event set) are writes
			// and their latency is charged as write time — "release
			// operations are included in the total write miss time".
			d = uint64(e.Wait) + uint64(e.Latency) - 1
			s = stall{catWrite, critpath.WriteLat}
			if isAcquireClass(e.Instr.Op) {
				s = stall{catSync, critpath.SyncWait}
			}
		}
		acct.bulk(busyCycle, 1, uint64(i+1))
		if d > 0 {
			acct.bulk(s, d, uint64(i+1))
		} else {
			s = busyCycle
		}
		cfg.CritPath.Edge(s.cause)
	}
	res := Result{Breakdown: acct.finish(acct.cycles(), uint64(src.n)), Instructions: uint64(src.n)}
	publishResult(&cfg, res)
	return res, nil
}
