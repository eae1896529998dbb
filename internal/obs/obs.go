// Package obs is the simulator's observability layer: a zero-dependency
// metrics registry, a bounded per-instruction pipeline event tracer with
// Konata and Chrome trace-event export, and run-level progress/profiling
// hooks.
//
// Every entry point is nil-safe: a nil *Registry, *PipeTracer, or *Progress
// turns the corresponding instrumentation into a no-op, so the timing models
// carry their hooks unconditionally and pay only a nil check when
// observability is off (the default). This is the property the overhead
// benchmark in the root package (BenchmarkObsOverhead) guards.
//
// The registry follows the shape of production metrics systems (and of
// gem5's stats framework): subsystems create named counters, gauges, and
// fixed-bucket histograms under a hierarchical dot-separated name, and one
// Snapshot call serializes everything to JSON. Lookups take a mutex and
// updates are lock-free atomics, so concurrent runs can publish into one
// registry. The simulators keep the registry out of their hot loops: a run
// counts into plain fields and LocalHistograms of its own and publishes
// them once, when it finishes.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter value; used when a subsystem publishes an
// already-aggregated total at the end of a run. Safe on a nil receiver.
func (c *Counter) Set(n uint64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric holding the latest observed value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the latest value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: Bounds[i] is the inclusive upper
// bound of bucket i, and one open bucket follows the last bound. Observations
// are lock-free atomic increments.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample. Safe on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.total.Add(1)
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// Total returns the number of samples (0 on a nil receiver).
func (h *Histogram) Total() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Count returns the number of samples in bucket i (0 on a nil receiver).
func (h *Histogram) Count(i int) uint64 {
	if h == nil {
		return 0
	}
	return h.counts[i].Load()
}

// Mean returns the mean of all observed samples (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h == nil || h.total.Load() == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(h.total.Load())
}

// LocalHistogram is a plain, single-owner fixed-bucket distribution with
// the same buckets as Histogram. A run fills its own with plain adds in the
// hot loop and publishes it once when it finishes, through
// Registry.MergeHistogram, so the simulation never touches the registry's
// shared atomics; the trace analyses use one on its own. The observing
// methods are safe on a nil receiver.
type LocalHistogram struct {
	Bounds []uint64 `json:"bounds"` // inclusive upper bounds; an open bucket follows
	Counts []uint64 `json:"counts"` // len(Bounds)+1 entries
	Total  uint64   `json:"total"`
	Sum    uint64   `json:"sum"`
}

// NewLocalHistogram returns an empty histogram with a copy of bounds.
func NewLocalHistogram(bounds ...uint64) *LocalHistogram {
	return &LocalHistogram{Bounds: append([]uint64(nil), bounds...), Counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *LocalHistogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v, exactly as n calls to Observe
// would. The time-skip paths use it to observe a whole quiet stretch of
// identical cycles in one call.
func (h *LocalHistogram) ObserveN(v, n uint64) {
	if h == nil {
		return
	}
	h.Total += n
	h.Sum += v * n
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i] += n
			return
		}
	}
	h.Counts[len(h.Bounds)] += n
}

// Fraction returns the fraction of samples in bucket i.
func (h *LocalHistogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// FractionAbove returns the fraction of samples strictly greater than
// bound, which must be one of the bucket bounds.
func (h *LocalHistogram) FractionAbove(bound uint64) float64 {
	if h.Total == 0 {
		return 0
	}
	above := h.Counts[len(h.Bounds)]
	for i, b := range h.Bounds {
		if b > bound {
			above += h.Counts[i]
		}
	}
	return float64(above) / float64(h.Total)
}

// String renders the histogram as the percentage of samples per bucket.
func (h *LocalHistogram) String() string {
	var sb strings.Builder
	prev := uint64(0)
	for i, b := range h.Bounds {
		fmt.Fprintf(&sb, "(%d,%d]:%4.0f%% ", prev, b, 100*h.Fraction(i))
		prev = b
	}
	fmt.Fprintf(&sb, ">%d:%4.0f%%", prev, 100*h.Fraction(len(h.Bounds)))
	return sb.String()
}

// HistogramSnapshot is the exported state of a Histogram: its samples and
// their mean.
type HistogramSnapshot struct {
	LocalHistogram
	Mean float64 `json:"mean"`
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. All methods are safe on a nil receiver and return nil metrics,
// whose methods are in turn no-ops, so `reg.Counter("x").Inc()` is always
// legal.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a usable no-op) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil (a usable no-op) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use. The bounds of an existing histogram
// are kept (first registration wins). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds ...uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// MergeHistogram adds the samples of a run-local histogram to the
// histogram registered under name, registering it with h's bounds on first
// use; h must have the bounds the name was registered with. It is how a run
// publishes a distribution once it finishes. Safe on a nil registry and a
// nil h.
func (r *Registry) MergeHistogram(name string, h *LocalHistogram) {
	if r == nil || h == nil {
		return
	}
	s := r.Histogram(name, h.Bounds...)
	for i, c := range h.Counts {
		s.counts[i].Add(c)
	}
	s.total.Add(h.Total)
	s.sum.Add(h.Sum)
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every registered metric. Safe on a
// nil registry (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{LocalHistogram: LocalHistogram{
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Total:  h.total.Load(),
			Sum:    h.sum.Load(),
		}, Mean: h.Mean()}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// LoadSnapshot replays a previously captured snapshot into the registry:
// counters and gauges are set to their snapshotted values, and histograms
// are reconstructed bucket-for-bucket. It is the restore half of the result
// cache's metrics memoization — a cache hit loads the metrics fragment the
// original computation published, so a warm run's registry (and therefore
// its determinism checksum) is byte-identical to a cold one. Existing
// metrics under other names are untouched. Safe on a nil registry.
func (r *Registry) LoadSnapshot(s Snapshot) {
	if r == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).Set(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Histograms {
		h := r.Histogram(name, hs.Bounds...)
		h.total.Store(hs.Total)
		h.sum.Store(hs.Sum)
		for i := range h.counts {
			if i < len(hs.Counts) {
				h.counts[i].Store(hs.Counts[i])
			}
		}
	}
}

// FilterSnapshot returns the subset of a snapshot whose metric names start
// with any of the given prefixes — the capture half of the result cache's
// metrics memoization.
func FilterSnapshot(s Snapshot, prefixes ...string) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	match := func(name string) bool {
		for _, p := range prefixes {
			if len(name) >= len(p) && name[:len(p)] == p {
				return true
			}
		}
		return false
	}
	for name, v := range s.Counters {
		if match(name) {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Gauges {
		if match(name) {
			out.Gauges[name] = v
		}
	}
	for name, v := range s.Histograms {
		if match(name) {
			out.Histograms[name] = v
		}
	}
	return out
}

// WriteJSON serializes a snapshot of the registry as indented JSON with
// deterministically ordered keys (encoding/json sorts map keys).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Names returns the sorted names of all registered metrics, for tests and
// diagnostics.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Prefixed joins a metric-name prefix and a name; it keeps instrumentation
// call sites free of string-concatenation noise.
func Prefixed(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + name
}
