package trace

import (
	"strings"
	"testing"

	"dynsched/internal/isa"
)

// TestHistogramBuckets checks the bucket edges of the read-miss distance
// histogram: each bound is an inclusive upper bound, and distances beyond
// the last one land in the open bucket.
func TestHistogramBuckets(t *testing.T) {
	for _, c := range []struct {
		gap    int
		bucket int
	}{
		{10, 0}, {11, 1}, {16, 1}, {17, 2}, {30, 3}, {31, 4}, {100, 5}, {101, 6},
	} {
		h := distanceTrace(3, c.gap).ReadMissDistances()
		if h.Total != 2 || h.Counts[c.bucket] != 2 {
			t.Errorf("gap %d: counts %v (total %d), want both distances in bucket %d", c.gap, h.Counts, h.Total, c.bucket)
		}
	}
	s := distanceTrace(3, 10).ReadMissDistances().String()
	if !strings.HasPrefix(s, "(0,10]: 100% (10,16]:   0%") || !strings.HasSuffix(s, ">100:   0%") {
		t.Errorf("String() = %q", s)
	}
}

// TestHistogramEmpty: a trace with one read miss has no distances, and the
// histogram renders as all zero.
func TestHistogramEmpty(t *testing.T) {
	h := distanceTrace(1, 10).ReadMissDistances()
	if h.Total != 0 || h.Fraction(0) != 0 || h.FractionAbove(10) != 0 {
		t.Errorf("one-miss trace: total %d, fractions %v %v; want zero", h.Total, h.Fraction(0), h.FractionAbove(10))
	}
	if s := h.String(); strings.Count(s, "   0%") != 7 {
		t.Errorf("String() = %q, want every bucket at 0%%", s)
	}
}

// distanceTrace builds a trace with read misses exactly gap instructions
// apart.
func distanceTrace(misses, gap int) *Trace {
	tr := &Trace{App: "dist", MissPenalty: 50}
	pc := int32(0)
	emit := func(e Event) {
		e.PC = pc
		e.NextPC = pc + 1
		pc++
		tr.Events = append(tr.Events, e)
	}
	for m := 0; m < misses; m++ {
		emit(Event{Instr: isa.Instr{Op: isa.OpLd, Dst: 2, Src1: 1}, Addr: uint64(m) * 64, Miss: true, Latency: 50})
		for i := 0; i < gap-1; i++ {
			emit(Event{Instr: isa.Instr{Op: isa.OpAdd, Dst: 3, Src1: 4, Src2: 5}})
		}
	}
	emit(Event{Instr: isa.Instr{Op: isa.OpHalt}})
	tr.Events[len(tr.Events)-1].NextPC = pc - 1
	return tr
}

func TestReadMissDistances(t *testing.T) {
	h := distanceTrace(10, 25).ReadMissDistances()
	if h.Total != 9 {
		t.Fatalf("9 gaps expected, got %d", h.Total)
	}
	// All distances are 25: bucket (20,30].
	if f := h.Fraction(3); f != 1 {
		t.Errorf("all distances should be in (20,30]: got %v (%s)", f, h)
	}
}

func TestReadMissDistancesIgnoresHits(t *testing.T) {
	tr := distanceTrace(3, 10)
	// Insert a hit load between misses; distances must not change.
	tr.Events[5].Instr = isa.Instr{Op: isa.OpLd, Dst: 2, Src1: 1}
	tr.Events[5].Addr = 8
	tr.Events[5].Latency = 1
	h := tr.ReadMissDistances()
	if h.Total != 2 {
		t.Errorf("gaps = %d, want 2", h.Total)
	}
}

func TestLatencyBoundMatchesBase(t *testing.T) {
	tr := miniTrace()
	rd, wr, sy := tr.LatencyBound()
	// From miniTrace: one read miss (49), one write miss (49) + unlock hit
	// (0), lock (10+49), barrier (100+49).
	if rd != 49 {
		t.Errorf("read bound = %d, want 49", rd)
	}
	if wr != 49 {
		t.Errorf("write bound = %d, want 49", wr)
	}
	if sy != 10+49+100+49 {
		t.Errorf("sync bound = %d, want 208", sy)
	}
}

func TestMissesAfterAcquire(t *testing.T) {
	tr := &Trace{App: "crit", MissPenalty: 50}
	pc := int32(0)
	emit := func(e Event) {
		e.PC = pc
		e.NextPC = pc + 1
		pc++
		tr.Events = append(tr.Events, e)
	}
	emit(Event{Instr: isa.Instr{Op: isa.OpLock}, Addr: 4096, Latency: 50, Miss: true})
	emit(Event{Instr: isa.Instr{Op: isa.OpLd, Dst: 2, Src1: 1}, Addr: 0, Miss: true, Latency: 50}) // near
	emit(Event{Instr: isa.Instr{Op: isa.OpUnlock}, Addr: 4096, Latency: 1})
	for i := 0; i < 50; i++ {
		emit(Event{Instr: isa.Instr{Op: isa.OpAdd, Dst: 3, Src1: 4, Src2: 5}})
	}
	emit(Event{Instr: isa.Instr{Op: isa.OpLd, Dst: 2, Src1: 1}, Addr: 64, Miss: true, Latency: 50}) // far
	emit(Event{Instr: isa.Instr{Op: isa.OpHalt}})
	tr.Events[len(tr.Events)-1].NextPC = pc - 1

	if f := tr.MissesAfterAcquire(10); f != 0.5 {
		t.Errorf("MissesAfterAcquire(10) = %v, want 0.5", f)
	}
	if f := tr.MissesAfterAcquire(1000); f != 1 {
		t.Errorf("MissesAfterAcquire(1000) = %v, want 1", f)
	}
}
