package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Error("second lookup returned a different counter")
	}
	c.Set(2)
	if got := c.Value(); got != 2 {
		t.Errorf("after Set(2): %d", got)
	}
	g := r.Gauge("g")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every chained call on a nil registry must be a silent no-op.
	r.Counter("x").Inc()
	r.Counter("x").Add(3)
	r.Gauge("y").Set(2)
	r.Histogram("z", 1, 2).Observe(7)
	if got := r.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if names := r.Names(); names != nil {
		t.Errorf("nil registry names = %v", names)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}

	var h *Histogram
	h.Observe(1)
	if h.Total() != 0 || h.Mean() != 0 {
		t.Error("nil histogram recorded samples")
	}
	var p *PipeTracer
	p.Record(InstrRecord{Seq: 1})
	if p.Len() != 0 {
		t.Error("nil pipe tracer recorded")
	}
	var lh *LocalHistogram
	lh.Observe(1)
	lh.ObserveN(1, 5)
	r.MergeHistogram("x", NewLocalHistogram(1))
	NewRegistry().MergeHistogram("x", nil)
	var pr *Progress
	pr.Lane("x").Publish(1, 1)
	pr.Start()
	pr.Stop()
}

func TestLocalHistogram(t *testing.T) {
	h := NewLocalHistogram(10, 20, 50)
	for _, v := range []uint64{1, 10, 11, 20, 21, 50, 51} {
		h.Observe(v)
	}
	h.ObserveN(1000, 3)
	h.ObserveN(5, 0)
	if h.Total != 10 || h.Sum != 1+10+11+20+21+50+51+3000 {
		t.Fatalf("total, sum = %d, %d", h.Total, h.Sum)
	}
	want := []uint64{2, 2, 2, 4} // (0,10], (10,20], (20,50], >50
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if f := h.Fraction(0); f != 0.2 {
		t.Errorf("Fraction(0) = %v, want 0.2", f)
	}
	if f := h.FractionAbove(20); f != 0.6 {
		t.Errorf("FractionAbove(20) = %v, want 0.6", f)
	}
	if s, want := h.String(), "(0,10]:  20% (10,20]:  20% (20,50]:  20% >50:  40%"; s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
	empty := NewLocalHistogram(10)
	if empty.Fraction(0) != 0 || empty.FractionAbove(0) != 0 {
		t.Error("empty histogram fractions should be zero")
	}
}

// A merged run-local histogram adds to the registry's, bucket for bucket,
// and registers the name on first use even with no samples.
func TestMergeHistogram(t *testing.T) {
	r := NewRegistry()
	a := NewLocalHistogram(1, 4)
	a.ObserveN(3, 2)
	b := NewLocalHistogram(1, 4)
	b.Observe(9)
	r.MergeHistogram("h", a)
	r.MergeHistogram("h", b)
	r.MergeHistogram("empty", NewLocalHistogram(1, 4))
	s := r.Snapshot()
	h := s.Histograms["h"]
	if h.Total != 3 || h.Sum != 15 || h.Mean != 5 || fmt.Sprint(h.Counts) != "[0 2 1]" {
		t.Errorf("merged histogram = %+v", h)
	}
	if e, ok := s.Histograms["empty"]; !ok || e.Total != 0 || len(e.Counts) != 3 {
		t.Errorf("empty merge = %+v, %v; want a registered zero histogram", e, ok)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]uint64{0, 10, 20})
	// Bucket bounds are inclusive upper bounds; the 4th bucket is open.
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {10, 1}, {11, 2}, {20, 2}, {21, 3}, {1 << 40, 3},
	}
	for _, c := range cases {
		before := h.Count(c.bucket)
		h.Observe(c.v)
		if got := h.Count(c.bucket); got != before+1 {
			t.Errorf("Observe(%d): bucket %d count %d, want %d", c.v, c.bucket, got, before+1)
		}
	}
	if h.Total() != uint64(len(cases)) {
		t.Errorf("total = %d, want %d", h.Total(), len(cases))
	}
}

func TestHistogramFirstRegistrationWins(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", 1, 2, 3)
	h2 := r.Histogram("h", 9)
	if h1 != h2 {
		t.Fatal("same name produced two histograms")
	}
	if len(h1.bounds) != 3 {
		t.Errorf("bounds = %v, want the first registration's", h1.bounds)
	}
}

// TestRegistryConcurrency exercises concurrent lookup and update from many
// goroutines; run under -race it proves the lock-free update path.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.count").Inc()
				r.Gauge("shared.gauge").Set(float64(i))
				r.Histogram("shared.hist", 10, 100).Observe(uint64(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Histogram("shared.hist").Total(); got != goroutines*iters {
		t.Errorf("histogram total = %d, want %d", got, goroutines*iters)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(0.5)
	r.Histogram("h", 1, 2).Observe(2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["c"] != 7 || s.Gauges["g"] != 0.5 {
		t.Errorf("round-tripped snapshot = %+v", s)
	}
	h := s.Histograms["h"]
	if h.Total != 1 || h.Sum != 2 || len(h.Counts) != 3 {
		t.Errorf("histogram snapshot = %+v", h)
	}
	want := []string{"c", "g", "h"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPipeTracerRing(t *testing.T) {
	p := NewPipeTracer(4)
	for i := uint64(0); i < 6; i++ {
		p.Record(InstrRecord{Seq: i, DecodedAt: i, RetiredAt: i + 1})
	}
	if p.Len() != 4 {
		t.Errorf("len = %d, want 4 (capacity)", p.Len())
	}
	if p.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", p.Dropped())
	}
	recs := p.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	for i, r := range recs {
		if want := uint64(i + 2); r.Seq != want {
			t.Errorf("records[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
}
