package cpu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dynsched/internal/bpred"
	"dynsched/internal/consistency"
	"dynsched/internal/isa"
	"dynsched/internal/trace"
)

// replay runs tr through arch: Replay over a materialized trace.
func replay(arch Arch, tr *trace.Trace, cfg Config) (Result, error) {
	return Replay(arch, TraceSource(tr), cfg)
}

// replayBase is the BASE replay of tr with every hook off. The zero Config
// is valid and a materialized trace cannot fail to decode, so it has no
// error to return.
func replayBase(tr *trace.Trace) Result {
	res, err := replay(ArchBase, tr, Config{})
	if err != nil {
		panic(err)
	}
	return res
}

// tb builds synthetic annotated traces for the processor models.
type tb struct {
	tr *trace.Trace
	pc int32
}

func newTB() *tb {
	return &tb{tr: &trace.Trace{App: "synthetic", NumCPUs: 16, MissPenalty: 50}}
}

func (b *tb) emit(e trace.Event) *tb {
	e.PC = b.pc
	e.NextPC = b.pc + 1
	b.pc++
	b.tr.Events = append(b.tr.Events, e)
	return b
}

// alu emits dst = s1 op s2 (1-cycle integer add).
func (b *tb) alu(dst, s1, s2 uint8) *tb {
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpAdd, Dst: dst, Src1: s1, Src2: s2}})
}

func (b *tb) load(dst, addrReg uint8, addr uint64, miss bool) *tb {
	lat := uint32(1)
	if miss {
		lat = 50
	}
	return b.emit(trace.Event{
		Instr: isa.Instr{Op: isa.OpLd, Dst: dst, Src1: addrReg},
		Addr:  addr, Miss: miss, Latency: lat,
	})
}

func (b *tb) store(addrReg, data uint8, addr uint64, miss bool) *tb {
	lat := uint32(1)
	if miss {
		lat = 50
	}
	return b.emit(trace.Event{
		Instr: isa.Instr{Op: isa.OpSt, Src1: addrReg, Src2: data},
		Addr:  addr, Miss: miss, Latency: lat,
	})
}

// branch emits a not-taken conditional branch on reg.
func (b *tb) branch(reg uint8) *tb {
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpBnez, Src1: reg, Imm: 9999}})
}

func (b *tb) lock(addr uint64, wait, lat uint32) *tb {
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpLock}, Addr: addr, Latency: lat, Wait: wait, Miss: lat > 1})
}

func (b *tb) unlock(addr uint64, lat uint32) *tb {
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpUnlock}, Addr: addr, Latency: lat, Miss: lat > 1})
}

func (b *tb) barrier(wait, lat uint32) *tb {
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpBarrier, Imm: 1}, Latency: lat, Wait: wait, Miss: lat > 1})
}

func (b *tb) halt() *trace.Trace {
	b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpHalt}})
	b.tr.Events[len(b.tr.Events)-1].NextPC = b.pc - 1
	return b.tr
}

func cfg(m consistency.Model, window int) Config {
	return Config{Model: m, Window: window, Predictor: bpred.Perfect{}}
}

// --- BASE ------------------------------------------------------------------

func TestBaseSerial(t *testing.T) {
	tr := newTB().
		alu(1, 0, 0).
		load(2, 1, 64, true).   // 50
		store(1, 2, 128, true). // 50
		lock(256, 30, 50).
		unlock(256, 1).
		halt()
	r := replayBase(tr)
	// busy = 6 instructions; read = 49; write = 49 (+0 for unlock hit);
	// sync = 30 + 50 - 1 = 79.
	if r.Breakdown.Busy != 6 {
		t.Errorf("busy = %d, want 6", r.Breakdown.Busy)
	}
	if r.Breakdown.Read != 49 {
		t.Errorf("read = %d, want 49", r.Breakdown.Read)
	}
	if r.Breakdown.Write != 49 {
		t.Errorf("write = %d, want 49", r.Breakdown.Write)
	}
	if r.Breakdown.Sync != 79 {
		t.Errorf("sync = %d, want 79", r.Breakdown.Sync)
	}
	if r.Breakdown.Total() != 6+49+49+79 {
		t.Errorf("total = %d", r.Breakdown.Total())
	}
}

// --- SSBR ------------------------------------------------------------------

// Under SC a store's latency is exposed because the next access may not
// issue until it performs; under PC/RC it is hidden by the write buffer.
func TestSSBRWriteLatencyByModel(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		b.store(1, 2, 64, true) // write miss, 50 cycles
		b.load(3, 1, 1024, true)
		for i := 0; i < 10; i++ {
			b.alu(4, 3, 3)
		}
		return b.halt()
	}
	sc, err := replay(ArchSSBR, mk(), Config{Model: consistency.SC})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := replay(ArchSSBR, mk(), Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Breakdown.Total() <= rc.Breakdown.Total() {
		t.Errorf("SC total %d should exceed RC total %d (write latency exposed)",
			sc.Breakdown.Total(), rc.Breakdown.Total())
	}
	// Under RC the store is buffered and the read bypasses it; the write
	// never stalls the processor (its drain overlaps the read miss stall).
	if rc.Breakdown.Write != 0 {
		t.Errorf("RC write stall = %d, want 0 (hidden behind read miss)", rc.Breakdown.Write)
	}
	// SC: the load may not issue until the store performs; its stall grows.
	if sc.Breakdown.Read+sc.Breakdown.Write < 90 {
		t.Errorf("SC memory stalls = read %d + write %d, want ~98", sc.Breakdown.Read, sc.Breakdown.Write)
	}
}

// A burst of write misses longer than the write buffer stalls even RC-lite
// models when nothing drains them — the OCEAN/PC effect of §4.1.1 is that
// PC drains writes serially while RC overlaps them. With a fixed 50-cycle
// pipe and one access per cycle the drain also serializes here, so we check
// the weaker, robust property: PC write stalls strictly exceed RC's.
func TestWriteBurstPCvsRC(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		for i := 0; i < 40; i++ {
			b.store(1, 2, uint64(i)*64, true)
		}
		// Reads between writes let RC's bypass ability matter.
		b.load(3, 1, 4096, true)
		for i := 0; i < 40; i++ {
			b.alu(4, 3, 3)
		}
		return b.halt()
	}
	pc, err := replay(ArchSSBR, mk(), Config{Model: consistency.PC})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := replay(ArchSSBR, mk(), Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	if pc.Breakdown.Total() < rc.Breakdown.Total() {
		t.Errorf("PC total %d unexpectedly below RC total %d", pc.Breakdown.Total(), rc.Breakdown.Total())
	}
	if pc.Breakdown.Write <= rc.Breakdown.Write {
		t.Errorf("PC write stall %d should exceed RC write stall %d (serialized drain)",
			pc.Breakdown.Write, rc.Breakdown.Write)
	}
}

// --- SS --------------------------------------------------------------------

// SS hides the portion of a read miss between the load and its first use.
func TestSSFirstUseStall(t *testing.T) {
	mk := func(gap int) *trace.Trace {
		b := newTB()
		b.load(2, 1, 64, true) // miss, 50 cycles
		for i := 0; i < gap; i++ {
			b.alu(3, 4, 4) // independent of r2
		}
		b.alu(5, 2, 2) // first use of the load value
		return b.halt()
	}
	near, err := replay(ArchSS, mk(2), Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	far, err := replay(ArchSS, mk(40), Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	blocking, err := replay(ArchSSBR, mk(2), Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	if near.Breakdown.Read >= blocking.Breakdown.Read {
		t.Errorf("SS read stall %d should be below SSBR %d", near.Breakdown.Read, blocking.Breakdown.Read)
	}
	if far.Breakdown.Read >= near.Breakdown.Read {
		t.Errorf("more independent work should hide more: far %d >= near %d",
			far.Breakdown.Read, near.Breakdown.Read)
	}
	if far.Breakdown.Read > 12 {
		t.Errorf("40 independent ops should hide nearly all of 49 stall cycles; read = %d", far.Breakdown.Read)
	}
}

// --- DS --------------------------------------------------------------------

// With RC, a window larger than the miss latency, and enough independent
// work, the read miss is fully hidden.
func TestDSHidesIndependentReadMiss(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		b.load(2, 1, 64, true)
		for i := 0; i < 60; i++ {
			b.alu(3, 4, 4)
		}
		b.alu(5, 2, 2)
		return b.halt()
	}
	r, err := replay(ArchDS, mk(), cfg(consistency.RC, 128))
	if err != nil {
		t.Fatal(err)
	}
	if r.Breakdown.Read > 2 {
		t.Errorf("read stall = %d, want ~0 (fully hidden)", r.Breakdown.Read)
	}
	if r.Breakdown.Busy != r.Instructions {
		t.Errorf("busy %d != instructions %d at width 1", r.Breakdown.Busy, r.Instructions)
	}
}

// A small window cannot span the latency: stall remains.
func TestDSWindowSizeLimitsOverlap(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		for rep := 0; rep < 20; rep++ {
			b.load(2, 1, uint64(rep)*64, true)
			for i := 0; i < 60; i++ {
				b.alu(3, 4, 4)
			}
			b.alu(5, 2, 2)
		}
		return b.halt()
	}
	small, err := replay(ArchDS, mk(), cfg(consistency.RC, 16))
	if err != nil {
		t.Fatal(err)
	}
	large, err := replay(ArchDS, mk(), cfg(consistency.RC, 128))
	if err != nil {
		t.Fatal(err)
	}
	if small.Breakdown.Read <= large.Breakdown.Read {
		t.Errorf("window 16 read stall %d should exceed window 128 stall %d",
			small.Breakdown.Read, large.Breakdown.Read)
	}
	if large.Breakdown.Read > 25 {
		t.Errorf("window 128 should hide nearly all read latency; read = %d", large.Breakdown.Read)
	}
}

// Under SC, dynamic scheduling gains almost nothing (reads serialize).
func TestDSSCSerializesReads(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		for rep := 0; rep < 10; rep++ {
			b.load(2, 1, uint64(rep)*64, true) // independent misses
			b.alu(3, 4, 4)
		}
		return b.halt()
	}
	sc, err := replay(ArchDS, mk(), cfg(consistency.SC, 256))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := replay(ArchDS, mk(), cfg(consistency.RC, 256))
	if err != nil {
		t.Fatal(err)
	}
	// RC overlaps the 10 independent misses; SC pays them serially.
	if sc.Breakdown.Total() < 10*49 {
		t.Errorf("SC total %d too small; misses must serialize", sc.Breakdown.Total())
	}
	if rc.Breakdown.Total() >= sc.Breakdown.Total()/2 {
		t.Errorf("RC %d should be far below SC %d with overlapped misses",
			rc.Breakdown.Total(), sc.Breakdown.Total())
	}
}

// A dependent chain of misses (pointer chasing) cannot be overlapped even
// with a huge window — the PTHOR effect.
func TestDSDependentMissChain(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		for rep := 0; rep < 10; rep++ {
			b.load(2, 2, uint64(rep)*64, true) // address depends on prior load
		}
		return b.halt()
	}
	r, err := replay(ArchDS, mk(), cfg(consistency.RC, 256))
	if err != nil {
		t.Fatal(err)
	}
	if r.Breakdown.Read < 10*45 {
		t.Errorf("dependent chain read stall %d, want near %d (serial misses)", r.Breakdown.Read, 10*49)
	}
	// Ignoring data dependences (Figure 4, right side) removes the chain.
	c := cfg(consistency.RC, 256)
	c.IgnoreDataDeps = true
	free, err := replay(ArchDS, mk(), c)
	if err != nil {
		t.Fatal(err)
	}
	if free.Breakdown.Read >= r.Breakdown.Read/2 {
		t.Errorf("ignoring deps should overlap the chain: %d vs %d", free.Breakdown.Read, r.Breakdown.Read)
	}
}

// Mispredicted branches block lookahead: with a predictor that always
// mispredicts, the miss behind the branch cannot be overlapped.
func TestDSMispredictBlocksLookahead(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		for rep := 0; rep < 10; rep++ {
			b.load(2, 1, uint64(rep)*64, true)
			b.branch(9) // not taken (r9 independent of load)
			for i := 0; i < 55; i++ {
				b.alu(3, 4, 4)
			}
			b.alu(5, 2, 2)
		}
		return b.halt()
	}
	perfect, err := replay(ArchDS, mk(), cfg(consistency.RC, 128))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(consistency.RC, 128)
	c.Predictor = bpred.StaticTaken{} // every branch in mk() is not-taken → all mispredict
	bad, err := replay(ArchDS, mk(), c)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Mispredicts != 10 {
		t.Errorf("mispredicts = %d, want 10", bad.Mispredicts)
	}
	if perfect.Mispredicts != 0 {
		t.Errorf("perfect predictor mispredicted %d times", perfect.Mispredicts)
	}
	if bad.Breakdown.Total() <= perfect.Breakdown.Total() {
		t.Errorf("mispredicts should cost cycles: bad %d <= perfect %d",
			bad.Breakdown.Total(), perfect.Breakdown.Total())
	}
}

// Acquire semantics: T is hideable (issues early), W is not (starts at the
// window head).
func TestDSAcquireWaitUnhideable(t *testing.T) {
	// An early read miss lets decode run ahead of retirement, so the
	// acquire can issue early: its transfer latency T overlaps the drain of
	// the buffered computation (the paper's "latency to access a free lock
	// can be hidden by overlapping this time with the computation prior to
	// it"). The contention component W, in contrast, only starts elapsing at
	// the window head and is charged in full.
	mk := func(wait uint32) *trace.Trace {
		b := newTB()
		b.load(2, 1, 64, true)
		for i := 0; i < 30; i++ {
			b.alu(3, 4, 4)
		}
		b.lock(256, wait, 50)
		b.unlock(256, 1)
		return b.halt()
	}
	noWait, err := replay(ArchDS, mk(0), cfg(consistency.RC, 128))
	if err != nil {
		t.Fatal(err)
	}
	withWait, err := replay(ArchDS, mk(200), cfg(consistency.RC, 128))
	if err != nil {
		t.Fatal(err)
	}
	// With W=0, part of the 50-cycle transfer overlaps the read-miss drain.
	if noWait.Breakdown.Sync >= 45 {
		t.Errorf("free-lock transfer latency not partially hidden: sync = %d", noWait.Breakdown.Sync)
	}
	// With W=200 the full contention wait is exposed (T hides inside W).
	if withWait.Breakdown.Sync < 195 {
		t.Errorf("contention wait W=200 must be unhideable; sync = %d", withWait.Breakdown.Sync)
	}
	ssbr, err := replay(ArchSSBR, mk(0), Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	if noWait.Breakdown.Sync >= ssbr.Breakdown.Sync {
		t.Errorf("DS sync stall %d should be below blocking-read SSBR %d", noWait.Breakdown.Sync, ssbr.Breakdown.Sync)
	}
}

// Store buffer forwarding: a load from a pending store's address completes
// quickly under relaxed models.
func TestDSStoreForwarding(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		b.store(1, 2, 64, true) // write miss to addr 64
		b.load(3, 1, 64, false).tr.Events[1].Miss = true
		b.tr.Events[1].Latency = 50 // the load would miss in the cache
		return b.halt()
	}
	rc, err := replay(ArchDS, mk(), cfg(consistency.RC, 64))
	if err != nil {
		t.Fatal(err)
	}
	// The load forwards from the store buffer: total far below 100.
	if rc.Breakdown.Total() > 60 {
		t.Errorf("forwarded load should not pay the miss: total = %d (%v)", rc.Breakdown.Total(), rc.Breakdown)
	}
}

// The store buffer fills and back-pressures retirement when stores miss
// faster than they drain.
func TestDSStoreBufferBackpressure(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		for i := 0; i < 64; i++ {
			b.store(1, 2, uint64(i)*64, true)
		}
		return b.halt()
	}
	c := cfg(consistency.RC, 64)
	c.StoreBufDepth = 2
	small, err := replay(ArchDS, mk(), c)
	if err != nil {
		t.Fatal(err)
	}
	c.StoreBufDepth = 64
	big, err := replay(ArchDS, mk(), c)
	if err != nil {
		t.Fatal(err)
	}
	if small.Breakdown.Write <= big.Breakdown.Write {
		t.Errorf("SB depth 2 write stall %d should exceed depth 64 stall %d",
			small.Breakdown.Write, big.Breakdown.Write)
	}
}

// MSHR limits throttle miss overlap.
func TestDSMSHRLimit(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		for i := 0; i < 20; i++ {
			b.load(2, 1, uint64(i)*64, true)
		}
		b.alu(3, 2, 2)
		return b.halt()
	}
	c := cfg(consistency.RC, 256)
	c.MSHRs = 1
	one, err := replay(ArchDS, mk(), c)
	if err != nil {
		t.Fatal(err)
	}
	c.MSHRs = 0 // unlimited
	unl, err := replay(ArchDS, mk(), c)
	if err != nil {
		t.Fatal(err)
	}
	if one.Breakdown.Total() <= unl.Breakdown.Total() {
		t.Errorf("1 MSHR total %d should exceed unlimited total %d",
			one.Breakdown.Total(), unl.Breakdown.Total())
	}
}

// Multi-issue retires faster on computation-heavy code.
func TestDSMultiIssue(t *testing.T) {
	mk := func() *trace.Trace {
		b := newTB()
		for i := 0; i < 400; i++ {
			b.alu(uint8(1+(i%8)), 9, 10) // independent ALU ops
		}
		return b.halt()
	}
	c1 := cfg(consistency.RC, 128)
	r1, err := replay(ArchDS, mk(), c1)
	if err != nil {
		t.Fatal(err)
	}
	c4 := cfg(consistency.RC, 128)
	c4.IssueWidth = 4
	r4, err := replay(ArchDS, mk(), c4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Breakdown.Total() >= r1.Breakdown.Total()*2/3 {
		t.Errorf("4-wide total %d not clearly below 1-wide %d", r4.Breakdown.Total(), r1.Breakdown.Total())
	}
}

// The read-miss issue-delay histogram reflects dependence chains.
func TestDSReadMissDelayHistogram(t *testing.T) {
	chain := newTB()
	for i := 0; i < 5; i++ {
		chain.load(2, 2, uint64(i)*64, true)
	}
	r, err := replay(ArchDS, chain.halt(), cfg(consistency.RC, 64))
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadMissDelay.Total != 5 {
		t.Fatalf("histogram samples = %d, want 5", r.ReadMissDelay.Total)
	}
	if r.ReadMissDelay.FractionAbove(40) < 0.5 {
		t.Errorf("chained misses should mostly be delayed > 40 cycles; fraction = %v",
			r.ReadMissDelay.FractionAbove(40))
	}

	indep := newTB()
	for i := 0; i < 5; i++ {
		indep.load(2, 1, uint64(i)*64, true)
	}
	r2, err := replay(ArchDS, indep.halt(), cfg(consistency.RC, 64))
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReadMissDelay.FractionAbove(10) > 0.2 {
		t.Errorf("independent misses should issue promptly; fraction above 10 = %v",
			r2.ReadMissDelay.FractionAbove(10))
	}
}

// DS under RC must never be slower than BASE, and total time must be at
// least the instruction count.
func TestDSSanityBounds(t *testing.T) {
	b := newTB()
	for i := 0; i < 50; i++ {
		b.load(2, 1, uint64(i%4)*4096, i%3 == 0)
		b.alu(3, 2, 2)
		b.store(1, 3, uint64(i%4)*4096+8, false)
	}
	tr := b.halt()
	base := replayBase(tr)
	ds, err := replay(ArchDS, tr, cfg(consistency.RC, 64))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Breakdown.Total() > base.Breakdown.Total() {
		t.Errorf("DS total %d exceeds BASE total %d", ds.Breakdown.Total(), base.Breakdown.Total())
	}
	if ds.Breakdown.Total() < ds.Instructions {
		t.Errorf("DS total %d below instruction count %d", ds.Breakdown.Total(), ds.Instructions)
	}
}

func TestConfigValidation(t *testing.T) {
	tr := newTB().alu(1, 0, 0).halt()
	if _, err := replay(ArchDS, tr, Config{Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := replay(ArchDS, tr, Config{Window: MaxWindow + 1}); err == nil || !strings.Contains(err.Error(), fmt.Sprint("window ", MaxWindow+1)) {
		t.Errorf("window above MaxWindow: err = %v, want a rejection naming the window", err)
	}
	// The bound itself is accepted (checked on a model with no ring).
	if _, err := replay(ArchSSBR, tr, Config{Window: MaxWindow}); err != nil {
		t.Errorf("window MaxWindow rejected: %v", err)
	}
	if _, err := replay(ArchSSBR, tr, Config{WriteBufDepth: -1}); err == nil {
		t.Error("negative write buffer accepted")
	}
}

// TestReplayRejectsInvalidConfig pins that Replay validates the completed
// Config once for every architecture and source kind: BASE, which reads
// only the observability hooks, rejects exactly what SSBR, SS and DS
// reject, with the same error.
func TestReplayRejectsInvalidConfig(t *testing.T) {
	tr := newTB().alu(1, 0, 0).halt()
	var raw bytes.Buffer
	if _, err := tr.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"window", Config{Window: -3, IssueWidth: -1}, "cpu: window -3 out of range"},
		{"huge window", Config{Window: MaxWindow + 1}, fmt.Sprintf("cpu: window %d out of range", MaxWindow+1)},
		{"width", Config{IssueWidth: -1}, "cpu: issue width -1 < 1"},
		{"write buffer", Config{WriteBufDepth: -1}, "cpu: buffer depths must be >= 1"},
		{"read buffer", Config{ReadBufDepth: -2}, "cpu: buffer depths must be >= 1"},
		{"store buffer", Config{StoreBufDepth: -4}, "cpu: buffer depths must be >= 1"},
	} {
		for _, arch := range Archs {
			cur, err := trace.NewCursor(bytes.NewReader(raw.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []Source{TraceSource(tr), CursorSource(cur)} {
				_, err := Replay(arch, src, tc.cfg)
				if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Errorf("%s/%s (cursor %v): err = %v, want %q", arch, tc.name, src.cur != nil, err, tc.want)
				}
			}
		}
	}
	if _, err := Replay("QUANTUM", TraceSource(tr), Config{}); err == nil || !strings.Contains(err.Error(), `unknown architecture "QUANTUM"`) {
		t.Errorf("unknown architecture: err = %v", err)
	}
}

// TestParseArch pins that ParseArch accepts exactly the four names, like
// consistency.ParseModel.
func TestParseArch(t *testing.T) {
	for _, a := range Archs {
		if got, err := ParseArch(string(a)); err != nil || got != a {
			t.Errorf("ParseArch(%q) = %q, %v", a, got, err)
		}
	}
	for _, s := range []string{"", "ds", "Base", " DS", "DS ", "SSB", "QUANTUM"} {
		if a, err := ParseArch(s); err == nil {
			t.Errorf("ParseArch(%q) = %q, want an error", s, a)
		}
	}
}
