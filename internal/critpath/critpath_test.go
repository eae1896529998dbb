package critpath

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.StallN(ReadLat, 1)
	c.StallN(WriteLat, 7)
	c.Uncharge(WriteLat)
	c.Edge(Busy)
	c.Finish(100)
	if a := c.Attribution(); a.Total != 0 || a.Sum() != 0 {
		t.Errorf("nil Attribution() = %+v, want zero", a)
	}
}

func TestConservationResidualBusy(t *testing.T) {
	c := NewCollector()
	c.StallN(ReadLat, 40)
	c.StallN(BranchRefill, 1)
	c.StallN(BranchRefill, 1)
	c.StallN(SyncWait, 8)
	c.Finish(100)
	a := c.Attribution()
	if a.Sum() != 100 {
		t.Fatalf("Sum() = %d, want 100 (conservation)", a.Sum())
	}
	if a.Cycles[Busy] != 50 {
		t.Errorf("busy = %d, want residual 50", a.Cycles[Busy])
	}
	if a.Cycles[ReadLat] != 40 || a.Cycles[BranchRefill] != 2 || a.Cycles[SyncWait] != 8 {
		t.Errorf("stall buckets = %v", a.Cycles)
	}
	if d := a.DominantStall(); d != ReadLat {
		t.Errorf("DominantStall() = %v, want read-lat", d)
	}
}

func TestCauseStrings(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range Causes() {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "cause(") {
			t.Errorf("cause %d has no name", c)
		}
		if seen[s] {
			t.Errorf("duplicate cause name %q", s)
		}
		seen[s] = true
	}
	if got := Cause(200).String(); got != "cause(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestAttributionJSON(t *testing.T) {
	c := NewCollector()
	c.StallN(ReadLat, 30)
	c.Edge(Busy)
	c.Finish(100)
	b, err := json.Marshal(c.Attribution())
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Total  uint64            `json:"total_cycles"`
		Cycles map[string]uint64 `json:"cycles"`
		Edges  map[string]uint64 `json:"edges"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if got.Total != 100 || got.Cycles["read-lat"] != 30 || got.Cycles["busy"] != 70 || got.Edges["busy"] != 1 {
		t.Errorf("round-trip = %+v from %s", got, b)
	}
}

// TestAttributionJSONRoundTrip: UnmarshalJSON restores exactly what
// MarshalJSON wrote, and rejects a bucket that names no cause.
func TestAttributionJSONRoundTrip(t *testing.T) {
	var a Attribution
	a.Total = 1000
	for c := Cause(0); c < NumCauses; c++ {
		a.Cycles[c] = uint64(c) * 7 // Busy stays zero, so omitted
		a.Edges[c] = uint64(NumCauses-c) % 3
	}
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var got Attribution
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if got != a {
		t.Errorf("round-trip = %+v, want %+v", got, a)
	}
	if err := json.Unmarshal([]byte(`{"total_cycles":1,"cycles":{"nosuch":1}}`), &got); err == nil {
		t.Error("an unknown cause name decoded")
	}
}

func TestWriteFlame(t *testing.T) {
	c := NewCollector()
	c.StallN(ReadLat, 25)
	c.StallN(BranchRefill, 5)
	c.Finish(100)
	var buf bytes.Buffer
	if err := WriteFlame(&buf, []FlameCell{{Name: "lu RC-DS64", Attr: c.Attribution()}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("flame output is not valid JSON: %v\n%s", err, buf.String())
	}
	// One metadata event plus one X event per non-zero bucket (busy,
	// read-lat, branch-refill).
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4:\n%s", len(doc.TraceEvents), buf.String())
	}
	var dur float64
	for _, ev := range doc.TraceEvents[1:] {
		dur += ev["dur"].(float64)
	}
	if dur != 100 {
		t.Errorf("total flame duration = %v, want 100 (conservation)", dur)
	}

	// Determinism: two renders are byte-identical.
	var buf2 bytes.Buffer
	if err := WriteFlame(&buf2, []FlameCell{{Name: "lu RC-DS64", Attr: c.Attribution()}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteFlame output is not deterministic")
	}
}
