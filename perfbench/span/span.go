// Package span records the benchmark's traced run: one span per call into
// a layer of the simulator, with its parent, its wall-clock interval and the
// heap bytes allocated while it was open. Spans stay in memory until the run
// ends and are then written out whole.
package span

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"
)

// Span is one timed call. Start and End are offsets from the recorder's
// creation, so a written trace needs no wall-clock anchor.
type Span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Parent int           `json:"parent"` // index of the enclosing span; -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Alloc  uint64        `json:"alloc_bytes"` // runtime TotalAlloc growth while open
}

// Duration is the span's wall-clock length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Recorder collects nested spans from a single goroutine: a span opened
// while another is open becomes its child.
type Recorder struct {
	origin time.Time
	spans  []Span
	open   []int
	alloc0 []uint64      // TotalAlloc at each open span's start, parallel to open
	cost   time.Duration // time spent inside Begin and End
}

// NewRecorder starts a recorder whose time origin is now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Begin opens a span under the innermost open span and returns its index.
func (r *Recorder) Begin(layer, name string) int {
	t0 := time.Now()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.alloc0 = append(r.alloc0, totalAlloc())
	r.spans = append(r.spans, Span{Name: name, Layer: layer, Parent: parent, Start: time.Since(r.origin)})
	r.open = append(r.open, id)
	r.cost += time.Since(t0)
	return id
}

// End closes the innermost open span, which must be id, and returns its
// duration.
func (r *Recorder) End(id int) time.Duration {
	t0 := time.Now()
	n := len(r.open)
	if n == 0 || r.open[n-1] != id {
		panic("span: End out of order")
	}
	s := &r.spans[id]
	s.End = time.Since(r.origin)
	s.Alloc = totalAlloc() - r.alloc0[n-1]
	r.open, r.alloc0 = r.open[:n-1], r.alloc0[:n-1]
	r.cost += time.Since(t0)
	return s.Duration()
}

// Cost is the time spent so far inside Begin and End, reading the clock and
// the allocation counter included: what recording the spans has added to
// the run.
func (r *Recorder) Cost() time.Duration { return r.cost }

// Spans returns the recorded spans in the order they were opened.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Overlapping children are counted
// once and a child reaching past its parent is clipped to the parent.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			st, en := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if en <= st {
				continue
			}
			if st > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = st, en
			} else if en > curEnd {
				curEnd = en
			}
		}
		covered += curEnd - curStart
		self[i] = s.Duration() - covered
	}
	return self
}

// Write encodes the spans as one JSON array.
func Write(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(spans)
}
