// Package critpath holds critical-path cycle attribution for the processor
// timing models: a per-replay Collector of stall cycles per fine cause and,
// for every retired instruction, its last-arriving dependence edge.
//
// The Figure 3 Breakdown answers "where did the cycles go" in the paper's
// four coarse categories; the attribution here answers "what caused them" —
// at window W under model M, X% of execution time is on the critical path
// because of cause C. The models classify each stall cycle once, as a
// category and a cause together, and charge both through one accounting
// path (including the DS burst-retirement credit, which takes cycles back
// with Uncharge). Finish then computes the busy bucket as the residual
// total − Σstalls, so the attribution buckets sum exactly to
// Breakdown.Total().
//
// Every Collector method is nil-safe: a replay with no collector pays only
// nil checks on the stall path.
package critpath

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Cause is a fine-grained critical-path cycle (or edge) classification.
type Cause uint8

const (
	// Busy is useful work: cycles retiring instructions. As a last-arriving
	// edge it marks an instruction that flowed through without waiting.
	Busy Cause = iota
	// DataDep is a register dependence on a non-load producer (ALU chains).
	DataDep
	// ReadLat is the memory-transfer latency of an issued read (and the
	// tail of a load-use chain waiting on that read's value).
	ReadLat
	// WriteLat is write/release memory-transfer latency, including the
	// end-of-trace drain of buffered writes.
	WriteLat
	// SyncWait is acquire synchronization: contention plus transfer.
	SyncWait
	// Consistency marks an access that is ready but may not issue because
	// the consistency model orders it behind older unperformed accesses.
	Consistency
	// BufferFull is a structural stall: the store buffer (DS), write
	// buffer (SSBR/SS), or read buffer (SS) has no free slot.
	BufferFull
	// MSHRFull is a structural stall: every miss-status register is
	// occupied, so a new miss cannot start.
	MSHRFull
	// BranchRefill is the fetch-redirect bubble after a mispredicted
	// branch (plus cold-start pipeline fill).
	BranchRefill
	// InOrder is an edge-only cause: the instruction had completed but
	// waited for older instructions to retire first (FIFO retirement).
	// It is never charged cycles.
	InOrder
	// Other is the residual bucket for rare unclassified bubbles.
	Other

	// NumCauses counts the causes; valid Cause values are < NumCauses.
	NumCauses
)

var causeNames = [NumCauses]string{
	Busy:         "busy",
	DataDep:      "data-dep",
	ReadLat:      "read-lat",
	WriteLat:     "write-lat",
	SyncWait:     "sync-wait",
	Consistency:  "consistency",
	BufferFull:   "buffer-full",
	MSHRFull:     "mshr-full",
	BranchRefill: "branch-refill",
	InOrder:      "in-order",
	Other:        "other",
}

func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Causes returns every cause in declaration order.
func Causes() []Cause {
	out := make([]Cause, NumCauses)
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}

// Collector accumulates one replay's critical-path attribution: stall
// cycles and last-arriving edges per cause. The zero value is ready to use;
// all methods are nil-safe no-ops on a nil receiver. A Collector is not safe
// for concurrent use — the experiment harness gives every replay cell its
// own.
type Collector struct {
	cycles [NumCauses]uint64
	edges  [NumCauses]uint64
	total  uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// StallN charges n stall cycles to cause.
func (c *Collector) StallN(cause Cause, n uint64) {
	if c == nil {
		return
	}
	c.cycles[cause] += n
}

// Uncharge takes back one stall cycle charged to cause, when the DS model's
// burst-retirement credit reclassifies that cycle as busy.
func (c *Collector) Uncharge(cause Cause) {
	if c == nil {
		return
	}
	c.cycles[cause]--
}

// CycleCounts returns the raw per-cause stall-cycle counters charged so
// far, *before* Finish derives the busy residual. The timeline sampler
// snapshots these at interval boundaries to derive per-interval fine-cause
// deltas; counts can decrease between snapshots when Uncharge reclaims
// cycles. Nil-safe (returns the zero array).
func (c *Collector) CycleCounts() [NumCauses]uint64 {
	if c == nil {
		return [NumCauses]uint64{}
	}
	return c.cycles
}

// Edge records one retired instruction's last-arriving dependence edge.
func (c *Collector) Edge(cause Cause) {
	if c == nil {
		return
	}
	c.edges[cause]++
}

// Finish seals the collection at the replay's total cycle count. The busy
// bucket is derived in Attribution as the residual total − Σstalls, which
// is what makes the conservation invariant hold by construction.
func (c *Collector) Finish(total uint64) {
	if c == nil {
		return
	}
	c.total = total
}

// Attribution returns the sealed attribution. Safe on a nil collector
// (returns the zero attribution).
func (c *Collector) Attribution() Attribution {
	if c == nil {
		return Attribution{}
	}
	a := Attribution{Total: c.total, Cycles: c.cycles, Edges: c.edges}
	var stall uint64
	for i := int(Busy) + 1; i < int(NumCauses); i++ {
		stall += c.cycles[i]
	}
	if a.Total >= stall {
		a.Cycles[Busy] = a.Total - stall
	}
	return a
}

// Attribution is a finished top-down cycle attribution: Cycles sums exactly
// to Total (the replay's Breakdown.Total()), and Edges sums to the retired
// instruction count.
type Attribution struct {
	Total  uint64
	Cycles [NumCauses]uint64
	Edges  [NumCauses]uint64
}

// Sum returns the total attributed cycles (== Total when conserved).
func (a Attribution) Sum() uint64 {
	var s uint64
	for _, v := range a.Cycles {
		s += v
	}
	return s
}

// EdgeSum returns the total recorded edges (== retired instructions).
func (a Attribution) EdgeSum() uint64 {
	var s uint64
	for _, v := range a.Edges {
		s += v
	}
	return s
}

// Share returns cause's fraction of total execution time.
func (a Attribution) Share(c Cause) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Cycles[c]) / float64(a.Total)
}

// DominantStall returns the largest non-busy cycle bucket (ties broken by
// declaration order, so the result is deterministic).
func (a Attribution) DominantStall() Cause {
	best := Cause(1)
	for c := Cause(1); c < NumCauses; c++ {
		if a.Cycles[c] > a.Cycles[best] {
			best = c
		}
	}
	return best
}

// attributionJSON is the encoded form of an Attribution: buckets keyed by
// cause name, zero buckets omitted.
type attributionJSON struct {
	Total  uint64            `json:"total_cycles"`
	Cycles map[string]uint64 `json:"cycles"`
	Edges  map[string]uint64 `json:"edges,omitempty"`
}

// MarshalJSON renders the attribution with cause-named buckets rather than
// positional arrays, so JSON consumers do not depend on enum order.
func (a Attribution) MarshalJSON() ([]byte, error) {
	cycles := make(map[string]uint64, NumCauses)
	edges := make(map[string]uint64, NumCauses)
	for c := Cause(0); c < NumCauses; c++ {
		if a.Cycles[c] > 0 {
			cycles[c.String()] = a.Cycles[c]
		}
		if a.Edges[c] > 0 {
			edges[c.String()] = a.Edges[c]
		}
	}
	return json.Marshal(attributionJSON{a.Total, cycles, edges})
}

// UnmarshalJSON is MarshalJSON's inverse; a bucket naming no cause is an
// error.
func (a *Attribution) UnmarshalJSON(data []byte) error {
	var js attributionJSON
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	out := Attribution{Total: js.Total}
	for _, b := range []struct {
		names map[string]uint64
		dst   *[NumCauses]uint64
	}{{js.Cycles, &out.Cycles}, {js.Edges, &out.Edges}} {
		for name, n := range b.names {
			c := slices.Index(causeNames[:], name)
			if c < 0 {
				return fmt.Errorf("critpath: unknown cause %q", name)
			}
			b.dst[c] = n
		}
	}
	*a = out
	return nil
}

// FlameCell names one attribution for the flamegraph export.
type FlameCell struct {
	Name string
	Attr Attribution
}

// WriteFlame renders the attributions as a Chrome trace (load into
// chrome://tracing or Perfetto): one process per cell, the causes laid out
// as consecutive complete events sized by their cycle counts, so each row
// reads as a flame-style bar of the cell's execution time. 1 cycle = 1 µs,
// matching the pipeline tracer's convention. Output is deterministic.
func WriteFlame(w io.Writer, cells []FlameCell) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}
	for i, cell := range cells {
		pid := i + 1
		if err := emit(map[string]any{
			"name": "process_name", "ph": "M", "pid": pid,
			"args": map[string]string{"name": cell.Name},
		}); err != nil {
			return err
		}
		var ts uint64
		for c := Cause(0); c < NumCauses; c++ {
			n := cell.Attr.Cycles[c]
			if n == 0 {
				continue
			}
			if err := emit(map[string]any{
				"name": c.String(), "ph": "X", "pid": pid, "tid": 1,
				"ts": ts, "dur": n,
			}); err != nil {
				return err
			}
			ts += n
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
