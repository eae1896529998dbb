package cpu

import (
	"testing"

	"dynsched/internal/consistency"
	"dynsched/internal/isa"
)

// TestOpRingBounded replays a trace with over a hundred blocks' worth of
// memory accesses and checks that the memOp ring recycles them: a replay
// holds blocks for its in-flight accesses (a 256-entry window, 16-deep
// buffers), not for every access of the trace.
func TestOpRingBounded(t *testing.T) {
	tr := randomTrace(7, 240000)
	mem := 0
	for i := range tr.Events {
		switch tr.Events[i].Class() {
		case isa.ClassLoad, isa.ClassStore, isa.ClassSync:
			mem++
		}
	}
	if mem < 100*opBlockSize {
		t.Fatalf("trace has %d memory accesses, want at least %d", mem, 100*opBlockSize)
	}
	peak := -1
	ringPeakHook = func(blocks int) { peak = blocks }
	defer func() { ringPeakHook = nil }()
	for _, m := range consistency.Models {
		for _, arch := range []Arch{ArchDS, ArchSSBR, ArchSS} {
			peak = -1
			if _, err := replay(arch, tr, Config{Model: m, Window: 256}); err != nil {
				t.Fatalf("%v %s: %v", m, arch, err)
			}
			t.Logf("%v %s: %d accesses, peak %d blocks", m, arch, mem, peak)
			if peak < 1 || peak > 4 {
				t.Errorf("%v %s: memOp ring peaked at %d blocks, want 1..4", m, arch, peak)
			}
		}
	}
}
