// Package isa defines the virtual RISC instruction set used throughout the
// simulator. It is a small 64-register load/store architecture with integer
// and floating-point arithmetic, conditional branches, and explicit
// synchronization instructions (lock, unlock, barrier, event wait/set).
//
// The ISA exists so that the five benchmark applications can be expressed at
// the register level: the dynamically scheduled processor model needs true
// register data dependences, realistic branch behaviour, and effective
// addresses, which a source-level workload model cannot provide.
//
// Registers are 64 bits wide. Register 0 (Zero) always reads as zero, as on
// MIPS. Floating-point values are stored in the same register file as raw
// IEEE-754 bit patterns. Memory is byte-addressed; loads and stores transfer
// aligned 8-byte words.
package isa

import (
	"fmt"
	"math"
)

// NumRegs is the number of architectural registers.
const NumRegs = 64

// Zero is the hardwired zero register.
const Zero uint8 = 0

// WordSize is the size in bytes of a memory word (all loads/stores are
// word-sized).
const WordSize = 8

// Op is an instruction opcode.
type Op uint8

// Opcodes. The comment gives the semantics using d (dest), a (src1), b
// (src2), and imm (immediate).
const (
	OpNop Op = iota // no operation

	// Integer ALU, register-register: d = a <op> b.
	OpAdd // d = a + b
	OpSub // d = a - b
	OpMul // d = a * b
	OpDiv // d = a / b (signed; division by zero yields 0)
	OpRem // d = a % b (signed; modulo by zero yields 0)
	OpAnd // d = a & b
	OpOr  // d = a | b
	OpXor // d = a ^ b
	OpShl // d = a << (b & 63)
	OpShr // d = a >> (b & 63) (logical)
	OpSlt // d = 1 if int64(a) < int64(b) else 0
	OpSle // d = 1 if int64(a) <= int64(b) else 0
	OpSeq // d = 1 if a == b else 0
	OpSne // d = 1 if a != b else 0

	// Integer ALU, register-immediate: d = a <op> imm.
	OpAddi // d = a + imm
	OpMuli // d = a * imm
	OpAndi // d = a & imm
	OpShli // d = a << imm
	OpShri // d = a >> imm
	OpSlti // d = 1 if int64(a) < imm else 0

	// Constants and moves.
	OpLi  // d = imm
	OpMov // d = a

	// Floating point (operands/results are float64 bit patterns).
	OpFAdd  // d = a +. b
	OpFSub  // d = a -. b
	OpFMul  // d = a *. b
	OpFDiv  // d = a /. b
	OpFNeg  // d = -.a
	OpFAbs  // d = |a|
	OpFSlt  // d = 1 if a <. b else 0
	OpFSqr  // d = sqrt(a)
	OpCvtIF // d = float64(int64(a))
	OpCvtFI // d = int64(float64bits(a))

	// Memory. Effective address is a + imm.
	OpLd // d = mem[a+imm]
	OpSt // mem[a+imm] = b

	// Control. Branch targets are absolute instruction indices held in imm.
	OpBeqz // if a == 0 goto imm
	OpBnez // if a != 0 goto imm
	OpJ    // goto imm
	OpHalt // stop the thread

	// Synchronization. The ANL-macro-style primitives of the paper's
	// applications. Lock/Unlock address a lock variable at a+imm.
	// Barrier/event instructions name their object by a+imm, so ids may be
	// computed at run time (LU waits on one event per pivot column).
	OpLock    // acquire lock at a+imm (blocks until held)
	OpUnlock  // release lock at a+imm
	OpBarrier // enter barrier a+imm (blocks until all participants arrive)
	OpWaitEv  // wait until event a+imm has been set (acquire)
	OpSetEv   // set event a+imm (release)

	numOps
)

var opNames = [...]string{
	OpNop: "nop",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpSlt: "slt", OpSle: "sle", OpSeq: "seq", OpSne: "sne",
	OpAddi: "addi", OpMuli: "muli", OpAndi: "andi", OpShli: "shli",
	OpShri: "shri", OpSlti: "slti",
	OpLi: "li", OpMov: "mov",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpFAbs: "fabs", OpFSlt: "fslt", OpFSqr: "fsqrt",
	OpCvtIF: "cvtif", OpCvtFI: "cvtfi",
	OpLd: "ld", OpSt: "st",
	OpBeqz: "beqz", OpBnez: "bnez", OpJ: "j", OpHalt: "halt",
	OpLock: "lock", OpUnlock: "unlock", OpBarrier: "barrier",
	OpWaitEv: "waitev", OpSetEv: "setev",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// Instr is a single static instruction.
type Instr struct {
	Op   Op
	Dst  uint8 // destination register (0 if none)
	Src1 uint8 // first source register
	Src2 uint8 // second source register
	Imm  int64 // immediate / displacement / branch target / sync object id
}

// Class partitions instructions by how the timing models treat them.
type Class uint8

const (
	ClassALU    Class = iota // integer or FP computation, moves, nop
	ClassLoad                // memory read
	ClassStore               // memory write
	ClassBranch              // conditional or unconditional control transfer
	ClassSync                // synchronization operation
	ClassHalt                // thread termination
)

// opProps are the properties of an opcode that the timing models and the
// simulators read once per instruction.
type opProps struct {
	class Class
	dest  bool  // writes Dst (when Dst is not the zero register)
	srcs  uint8 // reads Src1 (srcs >= 1) and Src2 (srcs == 2)
}

// opTable holds the properties of every Op value, so each lookup is one
// unchecked index. An undefined opcode is an ALU operation writing Dst
// and reading both sources.
var opTable = func() (t [256]opProps) {
	for op := range t {
		t[op] = opProps{class: ClassALU, dest: true, srcs: 2}
	}
	set := func(class Class, dest bool, srcs uint8, ops ...Op) {
		for _, op := range ops {
			t[op] = opProps{class, dest, srcs}
		}
	}
	set(ClassALU, false, 0, OpNop)
	set(ClassALU, true, 0, OpLi)
	set(ClassALU, true, 1, OpMov, OpFNeg, OpFAbs, OpFSqr, OpCvtIF, OpCvtFI,
		OpAddi, OpMuli, OpAndi, OpShli, OpShri, OpSlti)
	set(ClassLoad, true, 1, OpLd)
	set(ClassStore, false, 2, OpSt) // address base and data
	set(ClassBranch, false, 1, OpBeqz, OpBnez)
	set(ClassBranch, false, 0, OpJ)
	set(ClassHalt, false, 0, OpHalt)
	set(ClassSync, false, 1, OpLock, OpUnlock, OpBarrier, OpWaitEv, OpSetEv)
	return t
}()

// Classify returns the timing class of the opcode.
func Classify(op Op) Class { return opTable[op].class }

// IsLoad reports whether the opcode reads memory.
func IsLoad(op Op) bool { return op == OpLd }

// IsStore reports whether the opcode writes memory.
func IsStore(op Op) bool { return op == OpSt }

// IsBranch reports whether the opcode may transfer control.
func IsBranch(op Op) bool { return op == OpBeqz || op == OpBnez || op == OpJ }

// IsCondBranch reports whether the opcode is a conditional branch.
func IsCondBranch(op Op) bool { return op == OpBeqz || op == OpBnez }

// IsSync reports whether the opcode is a synchronization operation.
func IsSync(op Op) bool {
	switch op {
	case OpLock, OpUnlock, OpBarrier, OpWaitEv, OpSetEv:
		return true
	}
	return false
}

// IsAcquire reports whether the opcode is an acquire synchronization
// operation (gains permission: lock, event wait, barrier).
//
// A barrier is both a release (arrival) and an acquire (departure); the
// consistency machinery treats it as both, and Acquire/Release both report
// true for it.
func IsAcquire(op Op) bool {
	return op == OpLock || op == OpWaitEv || op == OpBarrier
}

// IsRelease reports whether the opcode is a release synchronization
// operation (gives away permission: unlock, event set, barrier).
func IsRelease(op Op) bool {
	return op == OpUnlock || op == OpSetEv || op == OpBarrier
}

// IsMem reports whether the opcode accesses data memory (loads, stores, and
// lock/unlock, which address a shared lock variable).
func IsMem(op Op) bool {
	return op == OpLd || op == OpSt || op == OpLock || op == OpUnlock
}

// HasDest reports whether the instruction writes a destination register.
func (i Instr) HasDest() bool { return i.Dst != Zero && opTable[i.Op].dest }

// SrcRegs appends the source registers the instruction reads (excluding the
// zero register) to dst and returns the result. The slice has at most two
// elements.
func (i Instr) SrcRegs(dst []uint8) []uint8 {
	srcs := opTable[i.Op].srcs
	if srcs >= 1 && i.Src1 != Zero {
		dst = append(dst, i.Src1)
	}
	if srcs == 2 && i.Src2 != Zero {
		dst = append(dst, i.Src2)
	}
	return dst
}

// String renders the instruction in assembly-like form.
func (i Instr) String() string {
	switch i.Op {
	case OpNop, OpHalt:
		return i.Op.String()
	case OpLi:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Dst, i.Imm)
	case OpMov, OpFNeg, OpFAbs, OpFSqr, OpCvtIF, OpCvtFI:
		return fmt.Sprintf("%s r%d, r%d", i.Op, i.Dst, i.Src1)
	case OpAddi, OpMuli, OpAndi, OpShli, OpShri, OpSlti:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Dst, i.Src1, i.Imm)
	case OpLd:
		return fmt.Sprintf("ld r%d, %d(r%d)", i.Dst, i.Imm, i.Src1)
	case OpSt:
		return fmt.Sprintf("st r%d, %d(r%d)", i.Src2, i.Imm, i.Src1)
	case OpBeqz, OpBnez:
		return fmt.Sprintf("%s r%d, @%d", i.Op, i.Src1, i.Imm)
	case OpJ:
		return fmt.Sprintf("j @%d", i.Imm)
	case OpLock, OpUnlock:
		return fmt.Sprintf("%s %d(r%d)", i.Op, i.Imm, i.Src1)
	case OpBarrier, OpWaitEv, OpSetEv:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Dst, i.Src1, i.Src2)
	}
}

// F64 converts a register bit pattern to a float64.
func F64(bits uint64) float64 { return math.Float64frombits(bits) }

// Bits converts a float64 to a register bit pattern.
func Bits(f float64) uint64 { return math.Float64bits(f) }

// EvalALU computes the result of a non-memory, non-branch instruction given
// its operand values. It panics on opcodes outside ClassALU.
func EvalALU(op Op, a, b uint64, imm int64) uint64 {
	switch op {
	case OpNop:
		return 0
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return uint64(int64(a) * int64(b))
	case OpDiv:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) / int64(b))
	case OpRem:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpSlt:
		return boolBit(int64(a) < int64(b))
	case OpSle:
		return boolBit(int64(a) <= int64(b))
	case OpSeq:
		return boolBit(a == b)
	case OpSne:
		return boolBit(a != b)
	case OpAddi:
		return a + uint64(imm)
	case OpMuli:
		return uint64(int64(a) * imm)
	case OpAndi:
		return a & uint64(imm)
	case OpShli:
		return a << (uint64(imm) & 63)
	case OpShri:
		return a >> (uint64(imm) & 63)
	case OpSlti:
		return boolBit(int64(a) < imm)
	case OpLi:
		return uint64(imm)
	case OpMov:
		return a
	case OpFAdd:
		return Bits(F64(a) + F64(b))
	case OpFSub:
		return Bits(F64(a) - F64(b))
	case OpFMul:
		return Bits(F64(a) * F64(b))
	case OpFDiv:
		return Bits(F64(a) / F64(b))
	case OpFNeg:
		return Bits(-F64(a))
	case OpFAbs:
		return Bits(math.Abs(F64(a)))
	case OpFSlt:
		return boolBit(F64(a) < F64(b))
	case OpFSqr:
		return Bits(math.Sqrt(F64(a)))
	case OpCvtIF:
		return Bits(float64(int64(a)))
	case OpCvtFI:
		return uint64(int64(F64(a)))
	}
	panic(fmt.Sprintf("isa: EvalALU called with non-ALU opcode %v", op))
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
