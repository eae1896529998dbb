package vm

import (
	"testing"
	"testing/quick"

	"dynsched/internal/asm"
	"dynsched/internal/isa"
)

func TestPagedMemZeroDefault(t *testing.T) {
	m := NewPagedMem()
	if got := m.Load(0x123456780); got != 0 {
		t.Errorf("uninitialized load = %d, want 0", got)
	}
}

func TestPagedMemRoundTrip(t *testing.T) {
	m := NewPagedMem()
	f := func(addrSeed uint32, val uint64) bool {
		addr := (uint64(addrSeed) * isa.WordSize) % (1 << 40)
		m.Store(addr, val)
		return m.Load(addr) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPagedMemZeroValue checks the documented promise that a zero PagedMem
// is ready to use: loads read zero and stores create pages on demand.
func TestPagedMemZeroValue(t *testing.T) {
	var m PagedMem
	if got := m.Load(64); got != 0 {
		t.Errorf("zero-value load = %d, want 0", got)
	}
	m.Store(64, 7)
	m.StoreF(1<<30, 2.5)
	if m.Load(64) != 7 || m.LoadF(1<<30) != 2.5 || m.Load(72) != 0 {
		t.Errorf("zero-value round trip: %d %v %d", m.Load(64), m.LoadF(1<<30), m.Load(72))
	}
}

func TestPagedMemDistinctWords(t *testing.T) {
	m := NewPagedMem()
	m.Store(0, 1)
	m.Store(8, 2)
	m.Store(1<<20, 3)
	if m.Load(0) != 1 || m.Load(8) != 2 || m.Load(1<<20) != 3 {
		t.Errorf("adjacent/far words interfere: %d %d %d", m.Load(0), m.Load(8), m.Load(1<<20))
	}
}

func TestPagedMemFloat(t *testing.T) {
	m := NewPagedMem()
	m.StoreF(64, 3.25)
	if got := m.LoadF(64); got != 3.25 {
		t.Errorf("LoadF = %v, want 3.25", got)
	}
}

// buildSum assembles: sum of 1..n stored at addr 0, then halt.
func buildSum(n int64) *asm.Program {
	b := asm.NewBuilder("sum")
	sum := b.Alloc()
	base := b.Alloc()
	b.Li(sum, 0)
	b.Li(base, 0)
	b.ForI(1, n+1, 1, func(i asm.Reg) {
		b.Add(sum, sum, i)
	})
	b.St(base, 0, sum)
	b.Halt()
	return b.MustBuild()
}

func TestRunSumLoop(t *testing.T) {
	m := NewPagedMem()
	th := NewThread(buildSum(100), m)
	if _, err := th.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := m.Load(0); got != 5050 {
		t.Errorf("sum 1..100 = %d, want 5050", got)
	}
	if !th.Halted {
		t.Error("thread not halted after Run")
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	b := asm.NewBuilder("z")
	r := b.Alloc()
	b.Li(r, 7)
	b.Emit(isa.Instr{Op: isa.OpMov, Dst: isa.Zero, Src1: r}) // attempt to write r0
	b.Halt()
	m := NewPagedMem()
	th := NewThread(b.MustBuild(), m)
	if _, err := th.Run(10); err != nil {
		t.Fatal(err)
	}
	if th.Regs[isa.Zero] != 0 {
		t.Errorf("zero register = %d, want 0", th.Regs[isa.Zero])
	}
}

func TestBranchTakenInfo(t *testing.T) {
	b := asm.NewBuilder("br")
	r := b.Alloc()
	b.Li(r, 0)
	b.Beqz(r, "target") // taken
	b.Li(r, 99)         // skipped
	b.Label("target")
	b.Halt()
	th := NewThread(b.MustBuild(), NewPagedMem())
	if _, err := th.Step(); err != nil { // li
		t.Fatal(err)
	}
	info, err := th.Step() // beqz
	if err != nil {
		t.Fatal(err)
	}
	if !info.Taken {
		t.Error("beqz on zero should be taken")
	}
	if info.NextPC != 3 {
		t.Errorf("NextPC = %d, want 3 (the halt after the skipped li)", info.NextPC)
	}
	if th.Regs[r] != 0 {
		t.Errorf("skipped instruction executed: r = %d", th.Regs[r])
	}
}

func TestStepInfoLoadStore(t *testing.T) {
	b := asm.NewBuilder("ls")
	base := b.Alloc()
	v := b.Alloc()
	b.Li(base, 128)
	b.Li(v, 42)
	b.St(base, 8, v)
	b.Ld(v, base, 8)
	b.Halt()
	th := NewThread(b.MustBuild(), NewPagedMem())
	th.Step()
	th.Step()
	st, _ := th.Step()
	if st.Addr != 136 || st.Value != 42 {
		t.Errorf("store info = addr %d val %d, want 136, 42", st.Addr, st.Value)
	}
	ld, _ := th.Step()
	if ld.Addr != 136 || ld.Value != 42 {
		t.Errorf("load info = addr %d val %d, want 136, 42", ld.Addr, ld.Value)
	}
}

func TestUnalignedLoadFails(t *testing.T) {
	b := asm.NewBuilder("u")
	base := b.Alloc()
	b.Li(base, 3)
	b.Ld(base, base, 0)
	b.Halt()
	th := NewThread(b.MustBuild(), NewPagedMem())
	th.Step()
	if _, err := th.Step(); err == nil {
		t.Fatal("unaligned load did not error")
	}
}

func TestSyncOpsAreFunctionalNops(t *testing.T) {
	b := asm.NewBuilder("s")
	base := b.Alloc()
	b.Li(base, 256)
	b.Lock(base, 0)
	b.Unlock(base, 0)
	b.Barrier(1)
	b.WaitEv(2)
	b.SetEv(2)
	b.Halt()
	th := NewThread(b.MustBuild(), NewPagedMem())
	th.Step()
	lk, err := th.Step()
	if err != nil {
		t.Fatal(err)
	}
	if lk.Addr != 256 {
		t.Errorf("lock addr = %d, want 256", lk.Addr)
	}
	if n, err := th.Run(0); err != nil || n != 5 {
		t.Fatalf("Run = %d, %v; want 5 remaining instructions", n, err)
	}
}

func TestStepOnHaltedThreadErrors(t *testing.T) {
	b := asm.NewBuilder("h")
	b.Halt()
	th := NewThread(b.MustBuild(), NewPagedMem())
	if _, err := th.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Step(); err == nil {
		t.Fatal("step after halt did not error")
	}
}

func TestRunMaxSteps(t *testing.T) {
	b := asm.NewBuilder("inf")
	b.Label("top")
	b.J("top")
	th := NewThread(b.MustBuild(), NewPagedMem())
	if _, err := th.Run(100); err == nil {
		t.Fatal("infinite loop not caught by maxSteps")
	}
}

func TestWhileAndIf(t *testing.T) {
	// Compute gcd(48, 18) with While/If to exercise structured control.
	b := asm.NewBuilder("gcd")
	a := b.Alloc()
	c := b.Alloc()
	base := b.Alloc()
	b.Li(a, 48)
	b.Li(c, 18)
	b.Li(base, 0)
	b.While(func(t asm.Reg) { b.Sne(t, c, isa.Zero) }, func() {
		tmp := b.Alloc()
		b.Rem(tmp, a, c)
		b.Mov(a, c)
		b.Mov(c, tmp)
		b.Free(tmp)
	})
	cond := b.Alloc()
	b.Slti(cond, a, 100)
	b.If(cond, func() { b.St(base, 0, a) }, func() { b.St(base, 8, a) })
	b.Halt()
	m := NewPagedMem()
	th := NewThread(b.MustBuild(), m)
	if _, err := th.Run(10000); err != nil {
		t.Fatal(err)
	}
	if got := m.Load(0); got != 6 {
		t.Errorf("gcd(48,18) = %d, want 6", got)
	}
	if got := m.Load(8); got != 0 {
		t.Errorf("else branch executed: mem[8] = %d", got)
	}
}
