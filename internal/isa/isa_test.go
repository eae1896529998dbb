package isa

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{OpAdd, ClassALU}, {OpFMul, ClassALU}, {OpLi, ClassALU}, {OpNop, ClassALU},
		{OpLd, ClassLoad}, {OpSt, ClassStore},
		{OpBeqz, ClassBranch}, {OpBnez, ClassBranch}, {OpJ, ClassBranch},
		{OpLock, ClassSync}, {OpUnlock, ClassSync}, {OpBarrier, ClassSync},
		{OpWaitEv, ClassSync}, {OpSetEv, ClassSync},
		{OpHalt, ClassHalt},
	}
	for _, c := range cases {
		if got := Classify(c.op); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestAcquireRelease(t *testing.T) {
	if !IsAcquire(OpLock) || !IsAcquire(OpWaitEv) || !IsAcquire(OpBarrier) {
		t.Error("lock, waitev, barrier must be acquires")
	}
	if !IsRelease(OpUnlock) || !IsRelease(OpSetEv) || !IsRelease(OpBarrier) {
		t.Error("unlock, setev, barrier must be releases")
	}
	if IsAcquire(OpUnlock) || IsRelease(OpLock) {
		t.Error("unlock is not an acquire; lock is not a release")
	}
	if IsAcquire(OpLd) || IsRelease(OpSt) {
		t.Error("plain memory ops are not synchronization")
	}
}

func TestIsMem(t *testing.T) {
	for _, op := range []Op{OpLd, OpSt, OpLock, OpUnlock} {
		if !IsMem(op) {
			t.Errorf("IsMem(%v) = false, want true", op)
		}
	}
	for _, op := range []Op{OpAdd, OpBarrier, OpWaitEv, OpSetEv, OpBeqz} {
		if IsMem(op) {
			t.Errorf("IsMem(%v) = true, want false", op)
		}
	}
}

func TestEvalALUInteger(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		imm  int64
		want uint64
	}{
		{OpAdd, 3, 4, 0, 7},
		{OpSub, 3, 4, 0, ^uint64(0)}, // -1
		{OpMul, 6, 7, 0, 42},
		{OpDiv, 42, 6, 0, 7},
		{OpDiv, 42, 0, 0, 0}, // div by zero defined as 0
		{OpRem, 43, 6, 0, 1},
		{OpRem, 43, 0, 0, 0},
		{OpAnd, 0b1100, 0b1010, 0, 0b1000},
		{OpOr, 0b1100, 0b1010, 0, 0b1110},
		{OpXor, 0b1100, 0b1010, 0, 0b0110},
		{OpShl, 1, 4, 0, 16},
		{OpShr, 16, 4, 0, 1},
		{OpSlt, ^uint64(0) /* -1 */, 0, 0, 1},
		{OpSlt, 0, 0, 0, 0},
		{OpSle, 5, 5, 0, 1},
		{OpSeq, 9, 9, 0, 1},
		{OpSne, 9, 9, 0, 0},
		{OpAddi, 10, 0, -3, 7},
		{OpMuli, 10, 0, 3, 30},
		{OpAndi, 0xff, 0, 0x0f, 0x0f},
		{OpShli, 1, 0, 5, 32},
		{OpShri, 32, 0, 5, 1},
		{OpSlti, 2, 0, 3, 1},
		{OpLi, 0, 0, -9, ^uint64(8)}, // two's-complement -9
		{OpMov, 123, 0, 0, 123},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b, c.imm); got != c.want {
			t.Errorf("EvalALU(%v, %d, %d, %d) = %d, want %d", c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestEvalALUFloat(t *testing.T) {
	a, b := Bits(2.5), Bits(4.0)
	if got := F64(EvalALU(OpFAdd, a, b, 0)); got != 6.5 {
		t.Errorf("fadd = %v, want 6.5", got)
	}
	if got := F64(EvalALU(OpFSub, a, b, 0)); got != -1.5 {
		t.Errorf("fsub = %v, want -1.5", got)
	}
	if got := F64(EvalALU(OpFMul, a, b, 0)); got != 10.0 {
		t.Errorf("fmul = %v, want 10", got)
	}
	if got := F64(EvalALU(OpFDiv, b, a, 0)); got != 1.6 {
		t.Errorf("fdiv = %v, want 1.6", got)
	}
	if got := F64(EvalALU(OpFNeg, a, 0, 0)); got != -2.5 {
		t.Errorf("fneg = %v, want -2.5", got)
	}
	if got := F64(EvalALU(OpFAbs, Bits(-3.0), 0, 0)); got != 3.0 {
		t.Errorf("fabs = %v, want 3", got)
	}
	if got := EvalALU(OpFSlt, a, b, 0); got != 1 {
		t.Errorf("fslt(2.5,4) = %d, want 1", got)
	}
	if got := F64(EvalALU(OpFSqr, Bits(9.0), 0, 0)); got != 3.0 {
		t.Errorf("fsqrt = %v, want 3", got)
	}
	if got := F64(EvalALU(OpCvtIF, ^uint64(6) /* -7 */, 0, 0)); got != -7.0 {
		t.Errorf("cvtif = %v, want -7", got)
	}
	if got := int64(EvalALU(OpCvtFI, Bits(-7.9), 0, 0)); got != -7 {
		t.Errorf("cvtfi = %d, want -7 (truncation)", got)
	}
}

func TestEvalALUPanicsOnMemOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EvalALU(OpLd) did not panic")
		}
	}()
	EvalALU(OpLd, 0, 0, 0)
}

// Property: float round-trip through register bits is exact.
func TestFloatBitsRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return math.IsNaN(F64(Bits(x)))
		}
		return F64(Bits(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add/Sub are inverses on the uint64 ring.
func TestAddSubInverse(t *testing.T) {
	f := func(a, b uint64) bool {
		return EvalALU(OpSub, EvalALU(OpAdd, a, b, 0), b, 0) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison results are always 0 or 1.
func TestComparisonsAreBoolean(t *testing.T) {
	ops := []Op{OpSlt, OpSle, OpSeq, OpSne, OpSlti, OpFSlt}
	f := func(a, b uint64, imm int64) bool {
		for _, op := range ops {
			v := EvalALU(op, a, b, imm)
			if v != 0 && v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSrcRegs(t *testing.T) {
	var buf []uint8
	cases := []struct {
		in   Instr
		want int
	}{
		{Instr{Op: OpAdd, Dst: 3, Src1: 1, Src2: 2}, 2},
		{Instr{Op: OpAdd, Dst: 3, Src1: 0, Src2: 2}, 1}, // zero reg excluded
		{Instr{Op: OpLi, Dst: 3}, 0},
		{Instr{Op: OpLd, Dst: 3, Src1: 4}, 1},
		{Instr{Op: OpSt, Src1: 4, Src2: 5}, 2},
		{Instr{Op: OpBeqz, Src1: 4}, 1},
		{Instr{Op: OpJ}, 0},
		{Instr{Op: OpLock, Src1: 4}, 1},
		{Instr{Op: OpBarrier, Imm: 1}, 0},
	}
	for _, c := range cases {
		got := c.in.SrcRegs(buf[:0])
		if len(got) != c.want {
			t.Errorf("SrcRegs(%v) = %v, want %d regs", c.in, got, c.want)
		}
	}
}

func TestHasDest(t *testing.T) {
	if !(Instr{Op: OpAdd, Dst: 1}).HasDest() {
		t.Error("add r1 has dest")
	}
	if (Instr{Op: OpAdd, Dst: Zero}).HasDest() {
		t.Error("add r0 has no architectural dest")
	}
	if (Instr{Op: OpSt, Src1: 1, Src2: 2}).HasDest() {
		t.Error("store has no dest")
	}
	if (Instr{Op: OpBeqz, Src1: 1}).HasDest() {
		t.Error("branch has no dest")
	}
	if !(Instr{Op: OpLd, Dst: 2, Src1: 1}).HasDest() {
		t.Error("load has dest")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpLi, Dst: 1, Imm: 5}, "li r1, 5"},
		{Instr{Op: OpLd, Dst: 2, Src1: 3, Imm: 16}, "ld r2, 16(r3)"},
		{Instr{Op: OpSt, Src1: 3, Src2: 4, Imm: 8}, "st r4, 8(r3)"},
		{Instr{Op: OpBeqz, Src1: 5, Imm: 42}, "beqz r5, @42"},
		{Instr{Op: OpBarrier, Imm: 2}, "barrier 2"},
		{Instr{Op: OpAdd, Dst: 1, Src1: 2, Src2: 3}, "add r1, r2, r3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// classifySwitch, hasDestSwitch and srcRegsSwitch are Classify, HasDest and
// SrcRegs as multi-way branches, before they became lookups in opTable.
func classifySwitch(op Op) Class {
	switch op {
	case OpLd:
		return ClassLoad
	case OpSt:
		return ClassStore
	case OpBeqz, OpBnez, OpJ:
		return ClassBranch
	case OpLock, OpUnlock, OpBarrier, OpWaitEv, OpSetEv:
		return ClassSync
	case OpHalt:
		return ClassHalt
	default:
		return ClassALU
	}
}

func hasDestSwitch(i Instr) bool {
	if i.Dst == Zero {
		return false
	}
	switch classifySwitch(i.Op) {
	case ClassALU, ClassLoad:
		return i.Op != OpNop
	}
	return false
}

func srcRegsSwitch(i Instr, dst []uint8) []uint8 {
	uses1, uses2 := false, false
	switch i.Op {
	case OpNop, OpLi, OpJ, OpHalt:
	case OpMov, OpFNeg, OpFAbs, OpFSqr, OpCvtIF, OpCvtFI,
		OpAddi, OpMuli, OpAndi, OpShli, OpShri, OpSlti,
		OpLd, OpBeqz, OpBnez, OpLock, OpUnlock,
		OpBarrier, OpWaitEv, OpSetEv:
		uses1 = true
	case OpSt:
		uses1, uses2 = true, true
	default:
		uses1, uses2 = true, true
	}
	if uses1 && i.Src1 != Zero {
		dst = append(dst, i.Src1)
	}
	if uses2 && i.Src2 != Zero {
		dst = append(dst, i.Src2)
	}
	return dst
}

// TestOpTableMatchesSwitches checks every one of the 256 Op values, defined
// or not, with each register operand zero and non-zero: the table answers
// exactly as the switches did.
func TestOpTableMatchesSwitches(t *testing.T) {
	for v := 0; v < 256; v++ {
		op := Op(v)
		if got, want := Classify(op), classifySwitch(op); got != want {
			t.Errorf("Classify(%v) = %v, want %v", op, got, want)
		}
		for _, regs := range [][3]uint8{{0, 0, 0}, {5, 0, 0}, {0, 6, 0}, {0, 0, 7}, {5, 6, 7}} {
			in := Instr{Op: op, Dst: regs[0], Src1: regs[1], Src2: regs[2]}
			if got, want := in.HasDest(), hasDestSwitch(in); got != want {
				t.Errorf("HasDest(%+v) = %t, want %t", in, got, want)
			}
			if got, want := in.SrcRegs(nil), srcRegsSwitch(in, nil); !slices.Equal(got, want) {
				t.Errorf("SrcRegs(%+v) = %v, want %v", in, got, want)
			}
		}
	}
}
