// Package trace defines the annotated dynamic instruction trace that couples
// the multiprocessor simulation (package tango) to the uniprocessor timing
// models (package cpu), mirroring §3.2 of the paper: "The generated trace is
// augmented with other dynamic information including the effective address
// for load and store instructions and the effective latency for each memory
// and synchronization operation."
package trace

import (
	"fmt"

	"dynsched/internal/isa"
)

// Event is one dynamically executed instruction with its annotations.
type Event struct {
	PC    int32     // static instruction index (serves as the branch PC)
	Instr isa.Instr // the executed instruction

	Addr uint64 // effective address (loads, stores, lock/unlock)

	// Latency is the memory transfer latency in cycles: 1 for a cache hit,
	// the miss penalty for a miss. For synchronization operations it is the
	// transfer component T (latency to access the sync variable); for
	// non-memory instructions it is 0.
	Latency uint32

	// Wait is the contention/load-imbalance component W of a synchronization
	// operation: the time spent waiting for the lock to be released, the
	// event to be set, or the last processor to reach the barrier. It is the
	// portion of synchronization overhead that no latency-hiding technique
	// can remove (§4.1.2).
	Wait uint32

	Miss  bool // memory reference missed in the cache
	Taken bool // branch outcome

	// NextPC is the PC of the following event (branch target for taken
	// branches, PC+1 otherwise).
	NextPC int32
}

// Class returns the timing class of the event's instruction.
func (e Event) Class() isa.Class { return isa.Classify(e.Instr.Op) }

// IsAcquire reports whether the event is an acquire synchronization.
func (e Event) IsAcquire() bool { return isa.IsAcquire(e.Instr.Op) }

// IsRelease reports whether the event is a release synchronization.
func (e Event) IsRelease() bool { return isa.IsRelease(e.Instr.Op) }

// Trace is the annotated instruction stream of one processor plus the
// simulation parameters it was generated under.
type Trace struct {
	App         string // application name
	CPU         int    // which processor's stream this is
	NumCPUs     int    // processors in the generating simulation
	MissPenalty uint32 // miss latency used during generation

	// Events is exactly sized (len == cap) as tango and ReadTrace return
	// it, so the harness keeps it as one shared arena that every
	// experiment cell replays through a View.
	Events []Event
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Events) }

// Meta is the generation metadata a trace carries alongside its events:
// the serialized header fields, minus the event count. It is what the
// streaming reader and writer exchange without ever materializing Events.
type Meta struct {
	App         string
	CPU         int
	NumCPUs     int
	MissPenalty uint32
}

// Meta returns the trace's generation metadata.
func (t *Trace) Meta() Meta {
	return Meta{App: t.App, CPU: t.CPU, NumCPUs: t.NumCPUs, MissPenalty: t.MissPenalty}
}

// Freeze re-homes Events into an exactly sized backing array if it has
// append slack, and returns t. Tango and ReadTrace already return exactly
// sized Events, so for their traces it copies nothing; it is kept for
// callers outside this module that still call it (perfbench's traced run).
func (t *Trace) Freeze() *Trace {
	if cap(t.Events) > len(t.Events) {
		ev := make([]Event, len(t.Events))
		copy(ev, t.Events)
		t.Events = ev
	}
	return t
}

// View returns a read-only view of the trace: a copy of the metadata whose
// Events slice shares t's backing arena but is capped at its length (a
// full slice expression), so an append through the view reallocates
// instead of clobbering the shared arena.
func (t *Trace) View() *Trace {
	v := *t
	v.Events = t.Events[:len(t.Events):len(t.Events)]
	return &v
}

// DataStats is one row of the paper's Table 1.
type DataStats struct {
	BusyCycles  uint64 // useful cycles = dynamic instruction count
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
}

// Per1000 returns references per thousand instructions for n.
func (d DataStats) Per1000(n uint64) float64 {
	if d.BusyCycles == 0 {
		return 0
	}
	return float64(n) * 1000 / float64(d.BusyCycles)
}

// SyncStats is one row of the paper's Table 2.
type SyncStats struct {
	Locks, Unlocks, WaitEvents, SetEvents, Barriers uint64
}

// Data computes the Table 1 row for the trace. Lock/unlock references are
// synchronization, not data, and are excluded, matching the paper's split
// between Tables 1 and 2.
func (t *Trace) Data() DataStats {
	var d DataStats
	for i := range t.Events {
		e := &t.Events[i]
		d.BusyCycles++
		switch e.Instr.Op {
		case isa.OpLd:
			d.Reads++
			if e.Miss {
				d.ReadMisses++
			}
		case isa.OpSt:
			d.Writes++
			if e.Miss {
				d.WriteMisses++
			}
		}
	}
	return d
}

// Sync computes the Table 2 row for the trace.
func (t *Trace) Sync() SyncStats {
	var s SyncStats
	for i := range t.Events {
		switch t.Events[i].Instr.Op {
		case isa.OpLock:
			s.Locks++
		case isa.OpUnlock:
			s.Unlocks++
		case isa.OpWaitEv:
			s.WaitEvents++
		case isa.OpSetEv:
			s.SetEvents++
		case isa.OpBarrier:
			s.Barriers++
		}
	}
	return s
}

// Predictor is the branch-prediction interface used for Table 3 and by the
// dynamically scheduled processor model. Predict returns the predicted
// direction for the conditional branch at pc; Update trains the predictor
// with the actual outcome.
//
// Because the simulation is trace-driven, Predict also receives the actual
// outcome: real predictors ignore it, while the perfect predictor of Figure 4
// simply returns it. Unconditional branches are always predicted correctly
// (the BTB supplies their target).
type Predictor interface {
	Predict(pc int32, actual bool) bool
	Update(pc int32, taken bool)
}

// BranchStats is one row of the paper's Table 3.
type BranchStats struct {
	Branches              uint64  // dynamic branch instructions (cond + uncond)
	CondBranches          uint64  // dynamic conditional branches
	Instructions          uint64  // total dynamic instructions
	Mispredicted          uint64  // conditional branches predicted wrongly
	PctInstructions       float64 // branches as % of instructions
	AvgDistance           float64 // avg instructions between branches
	PctCorrect            float64 // correctly predicted conditional branches (%)
	AvgMispredictDistance float64 // avg instructions between mispredictions
}

// Branches computes the Table 3 row by running p over the trace.
func (t *Trace) Branches(p Predictor) BranchStats {
	var b BranchStats
	b.Instructions = uint64(len(t.Events))
	for i := range t.Events {
		e := &t.Events[i]
		if !isa.IsBranch(e.Instr.Op) {
			continue
		}
		b.Branches++
		if isa.IsCondBranch(e.Instr.Op) {
			b.CondBranches++
			if p.Predict(e.PC, e.Taken) != e.Taken {
				b.Mispredicted++
			}
			p.Update(e.PC, e.Taken)
		}
	}
	if b.Instructions > 0 {
		b.PctInstructions = 100 * float64(b.Branches) / float64(b.Instructions)
	}
	if b.Branches > 0 {
		b.AvgDistance = float64(b.Instructions) / float64(b.Branches)
	}
	if b.CondBranches > 0 {
		b.PctCorrect = 100 * float64(b.CondBranches-b.Mispredicted) / float64(b.CondBranches)
	}
	if b.Mispredicted > 0 {
		b.AvgMispredictDistance = float64(b.Instructions) / float64(b.Mispredicted)
	}
	return b
}

// Validate checks structural trace invariants: every event's NextPC links to
// the next event's PC, memory events carry latencies, and sync events carry
// classification-consistent fields. It is used by tests and by the harness
// after trace generation.
func (t *Trace) Validate() error {
	for i := range t.Events {
		e := &t.Events[i]
		if i+1 < len(t.Events) {
			next := &t.Events[i+1]
			if e.NextPC != next.PC {
				return errBrokenLink(t.App, uint64(i), e.NextPC, next.PC)
			}
		}
		if err := validateEvent(t.App, i, e, t.MissPenalty); err != nil {
			return err
		}
	}
	return nil
}

// validateEvent checks the per-event invariants of Validate for event i of
// app's trace. The streaming Cursor applies the same function incrementally
// (plus the NextPC linkage check against its predecessor), so the two
// readers cannot drift on what a structurally valid trace is.
func validateEvent(app string, i int, e *Event, missPenalty uint32) error {
	switch e.Class() {
	case isa.ClassLoad, isa.ClassStore:
		if e.Latency == 0 {
			return fmt.Errorf("trace %s[%d]: memory event with zero latency", app, i)
		}
		if e.Miss && e.Latency < missPenalty {
			// Queueing at a bandwidth-limited memory system may lengthen
			// a miss, but never shorten it below the base penalty.
			return fmt.Errorf("trace %s[%d]: miss latency %d below penalty %d", app, i, e.Latency, missPenalty)
		}
		if !e.Miss && e.Latency != 1 {
			return fmt.Errorf("trace %s[%d]: hit latency %d != 1", app, i, e.Latency)
		}
	case isa.ClassSync:
		if e.Latency == 0 {
			return fmt.Errorf("trace %s[%d]: sync event with zero transfer latency", app, i)
		}
	case isa.ClassBranch:
		if e.Taken && e.NextPC != int32(e.Instr.Imm) {
			return fmt.Errorf("trace %s[%d]: taken branch NextPC %d != target %d", app, i, e.NextPC, e.Instr.Imm)
		}
		if !e.Taken && e.NextPC != e.PC+1 {
			return fmt.Errorf("trace %s[%d]: untaken branch NextPC %d != PC+1", app, i, e.NextPC)
		}
	}
	return nil
}
