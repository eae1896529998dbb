package resched

import (
	"testing"

	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/isa"
	"dynsched/internal/trace"
)

// tb is a minimal trace builder for scheduling tests.
type tb struct {
	tr *trace.Trace
	pc int32
}

func newTB() *tb {
	return &tb{tr: &trace.Trace{App: "sched", NumCPUs: 16, MissPenalty: 50}}
}

func (b *tb) emit(e trace.Event) *tb {
	e.PC = b.pc
	e.NextPC = b.pc + 1
	b.pc++
	b.tr.Events = append(b.tr.Events, e)
	return b
}

func (b *tb) alu(dst, s1, s2 uint8) *tb {
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpAdd, Dst: dst, Src1: s1, Src2: s2}})
}

func (b *tb) load(dst, addrReg uint8, miss bool) *tb {
	lat := uint32(1)
	if miss {
		lat = 50
	}
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpLd, Dst: dst, Src1: addrReg}, Addr: 64, Miss: miss, Latency: lat})
}

func (b *tb) store(addrReg, data uint8) *tb {
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpSt, Src1: addrReg, Src2: data}, Addr: 128, Latency: 1})
}

func (b *tb) branch(reg uint8) *tb {
	return b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpBnez, Src1: reg, Imm: 9999}})
}

func (b *tb) halt() *trace.Trace {
	b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpHalt}})
	b.tr.Events[len(b.tr.Events)-1].NextPC = b.pc - 1
	return b.tr
}

func ops(tr *trace.Trace) []isa.Op {
	out := make([]isa.Op, len(tr.Events))
	for i := range tr.Events {
		out[i] = tr.Events[i].Instr.Op
	}
	return out
}

func TestHoistsIndependentLoad(t *testing.T) {
	// alu alu alu load(miss) use → load should hoist to the front.
	b := newTB()
	b.alu(3, 4, 4).alu(3, 3, 4).alu(3, 3, 3)
	b.load(2, 1, true)
	b.alu(5, 2, 2)
	tr := b.halt()
	out, st := Reschedule(tr, 0)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.Events[0].Instr.Op != isa.OpLd {
		t.Errorf("load not hoisted to front: %v", ops(out))
	}
	if st.Hoisted != 1 || st.TotalHoist != 3 || st.MissesHoisted != 1 {
		t.Errorf("stats = %+v, want 1 hoist of distance 3", st)
	}
}

func TestDoesNotCrossAddressProducer(t *testing.T) {
	// alu defines r1; load uses r1 as its address: no hoist above it.
	b := newTB()
	b.alu(3, 4, 4)
	b.alu(1, 4, 4) // produces the address
	b.load(2, 1, true)
	tr := b.halt()
	out, _ := Reschedule(tr, 0)
	// The load may hoist past the first alu only if it could cross the
	// producer — it cannot, so it must stay right after instruction 1.
	if out.Events[1].Instr.Op == isa.OpLd || out.Events[0].Instr.Op == isa.OpLd {
		t.Errorf("load crossed its address producer: %v", ops(out))
	}
}

func TestDoesNotCrossStoreOrBranch(t *testing.T) {
	b := newTB()
	b.store(6, 7)
	b.alu(3, 4, 4)
	b.load(2, 1, true)
	b.branch(3)
	b.alu(3, 4, 4)
	b.load(8, 1, true)
	tr := b.halt()
	out, _ := Reschedule(tr, 0)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// First load may hoist above the alu but not above the store.
	if out.Events[0].Instr.Op != isa.OpSt {
		t.Errorf("store displaced: %v", ops(out))
	}
	if out.Events[1].Instr.Op != isa.OpLd {
		t.Errorf("first load should sit just after the store: %v", ops(out))
	}
	// Second load must stay after the branch.
	for i, e := range out.Events {
		if e.Instr.Op == isa.OpBnez {
			if i+2 >= len(out.Events) || out.Events[i+2].Instr.Op != isa.OpLd {
				// load hoists above the alu to just after the branch
				if out.Events[i+1].Instr.Op != isa.OpLd {
					t.Errorf("second load misplaced: %v", ops(out))
				}
			}
		}
	}
}

func TestDoesNotCrossDestReader(t *testing.T) {
	// alu reads r2; the load writes r2: WAR — no hoist above it.
	b := newTB()
	b.alu(9, 2, 2) // reads r2 (old value)
	b.load(2, 1, true)
	tr := b.halt()
	out, st := Reschedule(tr, 0)
	if out.Events[0].Instr.Op != isa.OpAdd {
		t.Errorf("load crossed a reader of its destination: %v", ops(out))
	}
	if st.Hoisted != 0 {
		t.Errorf("stats = %+v, want no hoists", st)
	}
}

func TestMaxHoistBound(t *testing.T) {
	b := newTB()
	for i := 0; i < 10; i++ {
		b.alu(3, 4, 4)
	}
	b.load(2, 1, true)
	tr := b.halt()
	out, st := Reschedule(tr, 4)
	if st.MaxHoist != 4 {
		t.Errorf("max hoist = %d, want 4 (bounded)", st.MaxHoist)
	}
	if out.Events[6].Instr.Op != isa.OpLd {
		t.Errorf("load at wrong slot: %v", ops(out))
	}
}

func TestPreservesMultiset(t *testing.T) {
	b := newTB()
	b.alu(3, 4, 4).load(2, 1, true).store(6, 7).alu(5, 2, 2).branch(5).alu(3, 4, 4).load(8, 1, false)
	tr := b.halt()
	out, _ := Reschedule(tr, 0)
	if len(out.Events) != len(tr.Events) {
		t.Fatalf("event count changed: %d vs %d", len(out.Events), len(tr.Events))
	}
	count := map[isa.Op]int{}
	for i := range tr.Events {
		count[tr.Events[i].Instr.Op]++
		count[out.Events[i].Instr.Op]--
	}
	for op, c := range count {
		if c != 0 {
			t.Errorf("opcode %v count changed by %d", op, c)
		}
	}
}

// The point of the exercise: rescheduling improves the SS processor's
// ability to hide read latency (the paper's future-work hypothesis).
func TestReschedulingHelpsSS(t *testing.T) {
	// Pattern: address computed early, then filler, then load immediately
	// before its use — the worst case for SS, the best case for scheduling.
	b := newTB()
	for r := 0; r < 30; r++ {
		b.alu(1, 4, 4) // address
		for i := 0; i < 60; i++ {
			b.alu(3, 4, 4) // independent filler, longer than the miss latency
		}
		b.load(2, 1, true)
		b.alu(5, 2, 2) // immediate use
	}
	tr := b.halt()
	out, st := Reschedule(tr, 0)
	if st.Hoisted == 0 {
		t.Fatal("nothing hoisted")
	}
	before, err := cpu.Replay(cpu.ArchSS, cpu.TraceSource(tr), cpu.Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	after, err := cpu.Replay(cpu.ArchSS, cpu.TraceSource(out), cpu.Config{Model: consistency.RC})
	if err != nil {
		t.Fatal(err)
	}
	if after.Breakdown.Read >= before.Breakdown.Read {
		t.Errorf("rescheduling did not reduce SS read stall: %d vs %d",
			after.Breakdown.Read, before.Breakdown.Read)
	}
	if float64(after.Breakdown.Read) > 0.1*float64(before.Breakdown.Read) {
		t.Errorf("hoisting past the full latency should hide nearly all read stall: %d vs %d",
			after.Breakdown.Read, before.Breakdown.Read)
	}
}
