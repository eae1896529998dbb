// Package vm implements the functional interpreter for virtual-ISA threads.
//
// A Thread executes one program instruction at a time against a shared
// Memory. The interpreter is purely functional: it computes values, effective
// addresses, and branch outcomes, but knows nothing about time. Timing,
// blocking, caches, and synchronization semantics are layered on top by the
// multiprocessor simulator (package tango), which calls Step and inspects the
// returned StepInfo.
package vm

import (
	"fmt"

	"dynsched/internal/asm"
	"dynsched/internal/isa"
)

// Memory is the functional view of the shared address space.
type Memory interface {
	// Load returns the word at addr. addr must be word-aligned.
	Load(addr uint64) uint64
	// Store writes the word at addr.
	Store(addr uint64, val uint64)
}

// PagedMem is a sparse word-addressable memory backed by fixed-size pages.
// The zero value is ready to use. It is not safe for concurrent use; the
// simulator is single-goroutine by design (deterministic interleaving).
type PagedMem struct {
	pages map[uint64]*page
}

const (
	pageWords = 1 << 12 // 4096 words = 32 KiB per page
	pageShift = 12 + 3  // word index → page id (3 = log2 word size)
	pageMask  = uint64(pageWords - 1)
)

type page [pageWords]uint64

// NewPagedMem returns an empty memory.
func NewPagedMem() *PagedMem {
	return &PagedMem{pages: make(map[uint64]*page)}
}

// Load implements Memory.
func (m *PagedMem) Load(addr uint64) uint64 {
	w := addr / isa.WordSize
	p := m.pages[w>>12]
	if p == nil {
		return 0
	}
	return p[w&pageMask]
}

// Store implements Memory.
func (m *PagedMem) Store(addr uint64, val uint64) {
	w := addr / isa.WordSize
	id := w >> 12
	p := m.pages[id]
	if p == nil {
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		p = new(page)
		m.pages[id] = p
	}
	p[w&pageMask] = val
}

// LoadF and StoreF are float64 conveniences for tests and result checking.
func (m *PagedMem) LoadF(addr uint64) float64     { return isa.F64(m.Load(addr)) }
func (m *PagedMem) StoreF(addr uint64, f float64) { m.Store(addr, isa.Bits(f)) }

// StepInfo describes the dynamic effects of one executed instruction.
type StepInfo struct {
	PC     int       // static instruction index executed
	Instr  isa.Instr // the instruction
	Addr   uint64    // effective address (loads, stores, lock/unlock)
	Value  uint64    // value loaded or stored (for debugging/validation)
	Taken  bool      // for branches: whether the branch was taken
	NextPC int       // PC after this instruction
	Halted bool      // instruction was Halt
}

// Thread is the architectural state of one virtual processor.
type Thread struct {
	Prog *asm.Program
	Mem  Memory

	PC     int
	Regs   [isa.NumRegs]uint64
	Halted bool

	// Executed counts dynamically executed instructions.
	Executed uint64
}

// NewThread returns a thread at the start of prog using mem.
func NewThread(prog *asm.Program, mem Memory) *Thread {
	return &Thread{Prog: prog, Mem: mem}
}

// SetReg initializes a register (used to pass the processor id and argument
// pointers before the thread starts).
func (t *Thread) SetReg(r asm.Reg, v uint64) { t.Regs[r] = v }

// Step executes the instruction at the current PC and advances. It returns
// an error only for malformed programs (PC out of range, invalid opcode);
// applications assembled through package asm never trigger these.
//
// Synchronization instructions (lock/unlock/barrier/event) are treated as
// no-ops functionally — the caller owns their semantics — but their effective
// address (for lock/unlock) is reported in StepInfo.
func (t *Thread) Step() (StepInfo, error) {
	if t.Halted {
		return StepInfo{}, fmt.Errorf("vm: step on halted thread %s", t.Prog.Name)
	}
	if t.PC < 0 || t.PC >= len(t.Prog.Instrs) {
		return StepInfo{}, fmt.Errorf("vm: %s: PC %d out of range [0,%d)", t.Prog.Name, t.PC, len(t.Prog.Instrs))
	}
	in := t.Prog.Instrs[t.PC]
	info := StepInfo{PC: t.PC, Instr: in, NextPC: t.PC + 1}

	switch isa.Classify(in.Op) {
	case isa.ClassALU:
		if in.Op != isa.OpNop {
			v := isa.EvalALU(in.Op, t.Regs[in.Src1], t.Regs[in.Src2], in.Imm)
			t.write(in.Dst, v)
			info.Value = v
		}
	case isa.ClassLoad:
		info.Addr = t.Regs[in.Src1] + uint64(in.Imm)
		if info.Addr%isa.WordSize != 0 {
			return StepInfo{}, fmt.Errorf("vm: %s: unaligned load of %#x at pc %d", t.Prog.Name, info.Addr, t.PC)
		}
		v := t.Mem.Load(info.Addr)
		t.write(in.Dst, v)
		info.Value = v
	case isa.ClassStore:
		info.Addr = t.Regs[in.Src1] + uint64(in.Imm)
		if info.Addr%isa.WordSize != 0 {
			return StepInfo{}, fmt.Errorf("vm: %s: unaligned store to %#x at pc %d", t.Prog.Name, info.Addr, t.PC)
		}
		info.Value = t.Regs[in.Src2]
		t.Mem.Store(info.Addr, info.Value)
	case isa.ClassBranch:
		switch in.Op {
		case isa.OpBeqz:
			info.Taken = t.Regs[in.Src1] == 0
		case isa.OpBnez:
			info.Taken = t.Regs[in.Src1] != 0
		case isa.OpJ:
			info.Taken = true
		}
		if info.Taken {
			info.NextPC = int(in.Imm)
		}
	case isa.ClassSync:
		// For lock/unlock, Addr is the lock variable's address; for
		// barriers and events it carries the runtime object id (a+imm).
		info.Addr = t.Regs[in.Src1] + uint64(in.Imm)
		// Semantics (blocking, event state) belong to the caller.
	case isa.ClassHalt:
		t.Halted = true
		info.Halted = true
		info.NextPC = t.PC
	default:
		return StepInfo{}, fmt.Errorf("vm: %s: invalid opcode %v at pc %d", t.Prog.Name, in.Op, t.PC)
	}

	t.PC = info.NextPC
	t.Executed++
	return info, nil
}

func (t *Thread) write(dst uint8, v uint64) {
	if dst != isa.Zero {
		t.Regs[dst] = v
	}
}

// Run executes the thread to completion (for single-threaded functional
// tests of application kernels; the multiprocessor simulator drives Step
// directly). It returns the number of instructions executed. maxSteps guards
// against runaway programs; 0 means no limit.
func (t *Thread) Run(maxSteps uint64) (uint64, error) {
	var n uint64
	for !t.Halted {
		if maxSteps > 0 && n >= maxSteps {
			return n, fmt.Errorf("vm: %s: exceeded %d steps", t.Prog.Name, maxSteps)
		}
		if _, err := t.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
