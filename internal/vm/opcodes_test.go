package vm

// Full-opcode execution coverage: every opcode in the ISA is executed
// through the interpreter at least once, with its architectural effect
// checked. This guards the coupling between isa.EvalALU, the classifier,
// and the stepper as the ISA evolves.

import (
	"math"
	"testing"

	"dynsched/internal/asm"
	"dynsched/internal/isa"
)

// runProg executes a builder-produced program and returns the memory.
func runProg(t *testing.T, build func(b *asm.Builder)) (*PagedMem, *Thread) {
	t.Helper()
	b := asm.NewBuilder("op")
	build(b)
	b.Halt()
	m := NewPagedMem()
	th := NewThread(b.MustBuild(), m)
	if _, err := th.Run(100000); err != nil {
		t.Fatal(err)
	}
	return m, th
}

func TestIntegerOpcodes(t *testing.T) {
	m, _ := runProg(t, func(b *asm.Builder) {
		out := b.Alloc()
		x := b.Alloc()
		y := b.Alloc()
		r := b.Alloc()
		b.Li(out, 0)
		b.Li(x, 37)
		b.Li(y, 5)
		store := func(off int64) { b.St(out, off, r) }
		b.Add(r, x, y)
		store(0) // 42
		b.Sub(r, x, y)
		store(8) // 32
		b.Mul(r, x, y)
		store(16) // 185
		b.Div(r, x, y)
		store(24) // 7
		b.Rem(r, x, y)
		store(32) // 2
		b.And(r, x, y)
		store(40) // 5
		b.Or(r, x, y)
		store(48) // 37
		b.Xor(r, x, y)
		store(56) // 32
		b.Shl(r, y, y)
		store(64) // 160
		b.Shr(r, x, y)
		store(72) // 1
		b.Slt(r, y, x)
		store(80) // 1
		b.Sle(r, x, x)
		store(88) // 1
		b.Seq(r, x, y)
		store(96) // 0
		b.Sne(r, x, y)
		store(104) // 1
		b.Addi(r, x, -7)
		store(112) // 30
		b.Muli(r, y, 9)
		store(120) // 45
		b.Andi(r, x, 0xF)
		store(128) // 5
		b.Shli(r, y, 2)
		store(136) // 20
		b.Shri(r, x, 2)
		store(144) // 9
		b.Slti(r, y, 6)
		store(152) // 1
		b.Mov(r, x)
		store(160) // 37
	})
	want := []uint64{42, 32, 185, 7, 2, 5, 37, 32, 160, 1, 1, 1, 0, 1, 30, 45, 5, 20, 9, 1, 37}
	for i, w := range want {
		if got := m.Load(uint64(i) * 8); got != w {
			t.Errorf("slot %d = %d, want %d", i, got, w)
		}
	}
}

func TestFloatOpcodes(t *testing.T) {
	m, _ := runProg(t, func(b *asm.Builder) {
		out := b.Alloc()
		x := b.Alloc()
		y := b.Alloc()
		r := b.Alloc()
		b.Li(out, 0)
		b.LiF(x, 6.25)
		b.LiF(y, 2.5)
		store := func(off int64) { b.St(out, off, r) }
		b.FAdd(r, x, y)
		store(0) // 8.75
		b.FSub(r, x, y)
		store(8) // 3.75
		b.FMul(r, x, y)
		store(16) // 15.625
		b.FDiv(r, x, y)
		store(24) // 2.5
		b.FNeg(r, y)
		store(32) // -2.5
		b.FAbs(r, r)
		store(40) // 2.5
		b.FSlt(r, y, x)
		store(48) // 1 (integer)
		b.FSqrt(r, x)
		store(56) // 2.5
		b.CvtFI(r, x)
		store(64) // 6 (integer)
		b.Li(r, -3)
		b.CvtIF(r, r)
		store(72) // -3.0
	})
	wantF := map[uint64]float64{0: 8.75, 8: 3.75, 16: 15.625, 24: 2.5, 32: -2.5, 40: 2.5, 56: 2.5, 72: -3}
	for off, w := range wantF {
		if got := m.LoadF(off); math.Abs(got-w) > 1e-15 {
			t.Errorf("float slot %d = %v, want %v", off, got, w)
		}
	}
	if got := m.Load(48); got != 1 {
		t.Errorf("fslt = %d, want 1", got)
	}
	if got := int64(m.Load(64)); got != 6 {
		t.Errorf("cvtfi = %d, want 6", got)
	}
}

func TestControlOpcodes(t *testing.T) {
	// Exercise Beqz (taken + not taken), Bnez, J, and nested loops.
	m, _ := runProg(t, func(b *asm.Builder) {
		out := b.Alloc()
		r := b.Alloc()
		b.Li(out, 0)
		b.Li(r, 0)
		b.Beqz(r, "taken")
		b.Li(r, 111) // skipped
		b.Label("taken")
		b.Addi(r, r, 1)
		b.Bnez(r, "taken2")
		b.Li(r, 222) // skipped
		b.Label("taken2")
		b.St(out, 0, r) // 1
		b.J("end")
		b.Li(r, 333) // skipped
		b.Label("end")
		b.Nop()
		b.St(out, 8, r) // still 1
	})
	if m.Load(0) != 1 || m.Load(8) != 1 {
		t.Errorf("control flow result = %d, %d, want 1, 1", m.Load(0), m.Load(8))
	}
}

func TestEveryOpcodeHasClassAndName(t *testing.T) {
	for op := isa.Op(0); op.Valid(); op++ {
		if op.String() == "" {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		// Classify must not panic and must return a defined class.
		c := isa.Classify(op)
		if c > isa.ClassHalt {
			t.Errorf("opcode %v has invalid class %d", op, c)
		}
	}
}

func TestExecutedCounter(t *testing.T) {
	_, th := runProg(t, func(b *asm.Builder) {
		r := b.Alloc()
		b.Li(r, 3)
		b.Addi(r, r, 1)
	})
	if th.Executed != 3 { // li, addi, halt
		t.Errorf("Executed = %d, want 3", th.Executed)
	}
}

// stepLocalThread returns a thread whose program is in followed by a halt,
// with registers 1..3 holding a, b and a third distinct value.
func stepLocalThread(in isa.Instr, a, b uint64) *Thread {
	prog := &asm.Program{Name: "local", Instrs: []isa.Instr{in, {Op: isa.OpHalt}}}
	th := NewThread(prog, NewPagedMem())
	th.Regs[1], th.Regs[2], th.Regs[3] = a, b, 0xdead
	return th
}

// TestStepLocalMatchesStep checks StepLocal against Step for every ALU and
// branch opcode: the same registers, PC and Executed count, and the same
// branch outcome as Step's StepInfo. It covers Nop, writes to the zero
// register, and each branch taken and not taken.
func TestStepLocalMatchesStep(t *testing.T) {
	operands := [][2]uint64{{37, 5}, {0, 0}, {^uint64(0), 3}, {isa.Bits(6.25), isa.Bits(2.5)}}
	for op := isa.Op(0); op.Valid(); op++ {
		c := isa.Classify(op)
		if c != isa.ClassALU && c != isa.ClassBranch {
			continue
		}
		for _, dst := range []uint8{isa.Zero, 3} {
			for _, ab := range operands {
				// Imm is a shift amount, an immediate operand, or a branch
				// target away from the fall-through PC.
				in := isa.Instr{Op: op, Dst: dst, Src1: 1, Src2: 2, Imm: 5}
				ref, got := stepLocalThread(in, ab[0], ab[1]), stepLocalThread(in, ab[0], ab[1])
				info, err := ref.Step()
				if err != nil {
					t.Fatalf("%v: Step: %v", in, err)
				}
				taken, ok := got.StepLocal()
				if !ok {
					t.Fatalf("%v: StepLocal refused an %v instruction", in, c)
				}
				if got.Regs != ref.Regs || got.PC != ref.PC || got.Executed != ref.Executed || got.Halted {
					t.Errorf("%v with %v: StepLocal left pc %d executed %d regs[3] %#x, Step pc %d executed %d regs[3] %#x",
						in, ab, got.PC, got.Executed, got.Regs[3], ref.PC, ref.Executed, ref.Regs[3])
				}
				if taken != info.Taken || got.PC != info.NextPC {
					t.Errorf("%v with %v: StepLocal taken=%v pc %d, StepInfo taken=%v next %d",
						in, ab, taken, got.PC, info.Taken, info.NextPC)
				}
				if got.Regs[isa.Zero] != 0 {
					t.Errorf("%v: zero register written", in)
				}
				if c == isa.ClassALU && op != isa.OpNop && dst != isa.Zero {
					if want := isa.EvalALU(op, ab[0], ab[1], in.Imm); got.Regs[dst] != want {
						t.Errorf("%v with %v: r%d = %#x, want %#x", in, ab, dst, got.Regs[dst], want)
					}
				}
			}
		}
	}

	// Both outcomes of each conditional branch, and a Nop that changes no
	// register.
	for _, tc := range []struct {
		op    isa.Op
		src   uint64
		taken bool
	}{
		{isa.OpBeqz, 0, true}, {isa.OpBeqz, 7, false},
		{isa.OpBnez, 7, true}, {isa.OpBnez, 0, false},
		{isa.OpJ, 0, true},
	} {
		th := stepLocalThread(isa.Instr{Op: tc.op, Src1: 1, Imm: 9}, tc.src, 0)
		taken, ok := th.StepLocal()
		want := 1
		if tc.taken {
			want = 9
		}
		if !ok || taken != tc.taken || th.PC != want {
			t.Errorf("%v on %d: ok=%v taken=%v pc=%d, want taken=%v pc=%d", tc.op, tc.src, ok, taken, th.PC, tc.taken, want)
		}
	}
	th := stepLocalThread(isa.Instr{Op: isa.OpNop, Dst: 3, Src1: 1, Src2: 2}, 1, 2)
	before := th.Regs
	if _, ok := th.StepLocal(); !ok || th.Regs != before || th.PC != 1 || th.Executed != 1 {
		t.Errorf("nop: ok=%v pc=%d executed=%d, regs changed=%v", ok, th.PC, th.Executed, th.Regs != before)
	}
}

// TestStepLocalRefusesNonLocal checks that StepLocal executes nothing that
// touches memory, synchronizes or halts, nor anything on a halted thread,
// out of range or with an invalid opcode: it returns false and leaves the
// thread and its memory as they were.
func TestStepLocalRefusesNonLocal(t *testing.T) {
	var cases []isa.Instr
	for op := isa.Op(0); op.Valid(); op++ {
		if c := isa.Classify(op); c != isa.ClassALU && c != isa.ClassBranch {
			cases = append(cases, isa.Instr{Op: op, Dst: 3, Src1: 1, Src2: 2, Imm: 8})
		}
	}
	cases = append(cases, isa.Instr{Op: isa.Op(255), Dst: 3, Src1: 1, Src2: 2})
	for _, in := range cases {
		th := stepLocalThread(in, 64, 42)
		before := *th
		if taken, ok := th.StepLocal(); ok || taken {
			t.Errorf("%v: StepLocal ran it (taken=%v)", in, taken)
		}
		if *th != before {
			t.Errorf("%v: StepLocal changed the thread", in)
		}
		if m := th.Mem.(*PagedMem); m.dense != nil || m.sparse != nil {
			t.Errorf("%v: StepLocal touched memory", in)
		}
	}
	if _, err := stepLocalThread(isa.Instr{Op: isa.Op(255)}, 0, 0).Step(); err == nil {
		t.Error("Step accepted an invalid opcode")
	}

	halted := stepLocalThread(isa.Instr{Op: isa.OpAddi, Dst: 3, Src1: 1, Imm: 1}, 0, 0)
	halted.Halted = true
	outside := stepLocalThread(isa.Instr{Op: isa.OpAddi, Dst: 3, Src1: 1, Imm: 1}, 0, 0)
	outside.PC = 2
	for name, th := range map[string]*Thread{"halted": halted, "pc out of range": outside} {
		before := *th
		if _, ok := th.StepLocal(); ok || *th != before {
			t.Errorf("%s: StepLocal ran (ok=%v) or changed the thread", name, ok)
		}
	}
}
