package span

import (
	"testing"
	"time"
)

// TestSelfTimesHandBuiltTree checks the self-time arithmetic on a tree whose
// answer is worked out by hand:
//
//	root [0,100)
//	├── a [10,40)        self 30-(10+5)     = 15
//	│   ├── a1 [12,22)   self 10
//	│   └── a2 [30,35)   self 5
//	├── b [40,70)        self 30-15 (overlap counted once) = 15
//	│   ├── b1 [45,55)   self 10
//	│   └── b2 [50,60)   self 10
//	└── c [90,110)       reaches past root: clipped to [90,100) for root
//	root self = 100 - (30+30+10) = 30
func TestSelfTimesHandBuiltTree(t *testing.T) {
	ns := func(v int) time.Duration { return time.Duration(v) }
	spans := []Span{
		{Name: "root", Parent: -1, Start: ns(0), End: ns(100)},
		{Name: "a", Parent: 0, Start: ns(10), End: ns(40)},
		{Name: "a1", Parent: 1, Start: ns(12), End: ns(22)},
		{Name: "a2", Parent: 1, Start: ns(30), End: ns(35)},
		{Name: "b", Parent: 0, Start: ns(40), End: ns(70)},
		{Name: "b2", Parent: 4, Start: ns(50), End: ns(60)},
		{Name: "b1", Parent: 4, Start: ns(45), End: ns(55)},
		{Name: "c", Parent: 0, Start: ns(90), End: ns(110)},
	}
	want := map[string]time.Duration{
		"root": 30, "a": 15, "a1": 10, "a2": 5, "b": 15, "b1": 10, "b2": 10, "c": 20,
	}
	for i, got := range SelfTimes(spans) {
		if w := want[spans[i].Name]; got != w {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got, w)
		}
	}
}

var sink []byte

func TestRecorderNestsAndCountsAllocations(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("exp", "root")
	child := r.Begin("cpu", "child")
	sink = make([]byte, 1<<20)
	r.End(child)
	r.End(root)
	sp := r.Spans()
	if len(sp) != 2 || sp[0].Parent != -1 || sp[1].Parent != 0 {
		t.Fatalf("bad tree: %+v", sp)
	}
	if sp[1].Start < sp[0].Start || sp[1].End > sp[0].End {
		t.Fatalf("child interval outside parent: %+v", sp)
	}
	if sp[1].Alloc < 1<<20 || sp[0].Alloc < sp[1].Alloc {
		t.Fatalf("allocation not attributed: root %d child %d", sp[0].Alloc, sp[1].Alloc)
	}
	self := SelfTimes(sp)
	if self[0]+self[1] != sp[0].Duration() {
		t.Fatalf("self times %v do not add up to the root's %v", self, sp[0].Duration())
	}
	// Four calls, each reading the clock and the allocation counter: the
	// recorder's cost is positive and within the recorder's lifetime.
	if c := r.Cost(); c <= 0 || c > time.Since(r.origin) {
		t.Fatalf("recorder cost %v", c)
	}
}

func TestEndOutOfOrderPanics(t *testing.T) {
	r := NewRecorder()
	a := r.Begin("x", "a")
	r.Begin("x", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("closing the outer span first did not panic")
		}
	}()
	r.End(a)
}
