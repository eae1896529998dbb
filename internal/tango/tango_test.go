package tango

import (
	"reflect"
	"strings"
	"testing"

	"dynsched/internal/asm"
	"dynsched/internal/isa"
	"dynsched/internal/mem"
	"dynsched/internal/vm"
)

func cfgN(n, traceCPU int) Config {
	c := DefaultConfig()
	c.NumCPUs = n
	c.TraceCPU = traceCPU
	return c
}

func same(n int, p *asm.Program) []*asm.Program {
	ps := make([]*asm.Program, n)
	for i := range ps {
		ps[i] = p
	}
	return ps
}

// lockCounter builds: for i in 0..iters { lock; c = mem[addr]; c++; store; unlock }.
func lockCounter(lockAddr, ctrAddr uint64, iters int64) *asm.Program {
	b := asm.NewBuilder("lockctr")
	lk := b.Alloc()
	ctr := b.Alloc()
	b.Li(lk, int64(lockAddr))
	b.Li(ctr, int64(ctrAddr))
	b.ForI(0, iters, 1, func(i asm.Reg) {
		b.Lock(lk, 0)
		v := b.Alloc()
		b.Ld(v, ctr, 0)
		b.Addi(v, v, 1)
		b.St(ctr, 0, v)
		b.Free(v)
		b.Unlock(lk, 0)
	})
	b.Halt()
	return b.MustBuild()
}

func TestLockMutualExclusion(t *testing.T) {
	const iters = 50
	const n = 4
	prog := lockCounter(0x1000, 0x2000, iters)
	res, err := Run(same(n, prog), nil, cfgN(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Verify the final counter through a fresh read of shared memory via a
	// probe program is overkill; instead re-run with memInit capturing the
	// memory pointer.
	var m *vm.PagedMem
	res, err = Run(same(n, prog), func(pm *vm.PagedMem) { m = pm }, cfgN(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Load(0x2000); got != iters*n {
		t.Errorf("counter = %d, want %d (lost updates: lock broken)", got, iters*n)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no trace recorded")
	}
	if err := res.Trace.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	sync := res.Trace.Sync()
	if sync.Locks != iters || sync.Unlocks != iters {
		t.Errorf("sync stats = %+v, want %d locks/unlocks", sync, iters)
	}
}

func TestLockContentionRecordsWait(t *testing.T) {
	const n = 4
	prog := lockCounter(0x1000, 0x2000, 20)
	res, err := Run(same(n, prog), nil, cfgN(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	var waited uint64
	for _, e := range res.Trace.Events {
		if e.Instr.Op == isa.OpLock {
			waited += uint64(e.Wait)
		}
	}
	if waited == 0 {
		t.Error("4 CPUs hammering one lock recorded zero contention wait")
	}
	if res.CPUStats[1].SyncWait == 0 {
		t.Error("CPUStats.SyncWait = 0 under contention")
	}
}

func TestBarrierOrdering(t *testing.T) {
	// Each CPU stores its id+1 to slot[cpu] (phase 1), barrier, then sums
	// all slots and stores the result to out[cpu].
	const n = 8
	slots := uint64(0x4000)
	out := uint64(0x8000)
	b := asm.NewBuilder("barrier")
	base := b.Alloc()
	addr := b.Alloc()
	v := b.Alloc()
	b.Li(base, int64(slots))
	b.Shli(addr, asm.RegCPU, 3)
	b.Add(addr, addr, base)
	b.Addi(v, asm.RegCPU, 1)
	b.St(addr, 0, v)
	b.Barrier(1)
	sum := b.Alloc()
	b.Li(sum, 0)
	b.For(isa.Zero, asm.RegNCPU, 1, func(i asm.Reg) {
		b.Shli(addr, i, 3)
		b.Add(addr, addr, base)
		b.Ld(v, addr, 0)
		b.Add(sum, sum, v)
	})
	b.Li(base, int64(out))
	b.Shli(addr, asm.RegCPU, 3)
	b.Add(addr, addr, base)
	b.St(addr, 0, sum)
	b.Halt()
	prog := b.MustBuild()

	var m *vm.PagedMem
	res, err := Run(same(n, prog), func(pm *vm.PagedMem) { m = pm }, cfgN(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(n * (n + 1) / 2)
	for cpu := 0; cpu < n; cpu++ {
		if got := m.Load(out + uint64(cpu)*8); got != want {
			t.Errorf("cpu %d sum = %d, want %d (barrier did not order phases)", cpu, got, want)
		}
	}
	if got := res.Trace.Sync().Barriers; got != 1 {
		t.Errorf("barriers in trace = %d, want 1", got)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBarrierReuse(t *testing.T) {
	// Same barrier id used across 5 phases must not deadlock or misorder.
	const n = 4
	b := asm.NewBuilder("reuse")
	b.ForI(0, 5, 1, func(i asm.Reg) {
		b.Barrier(7)
	})
	b.Halt()
	res, err := Run(same(n, b.MustBuild()), nil, cfgN(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Trace.Sync().Barriers; got != 5 {
		t.Errorf("barrier episodes = %d, want 5", got)
	}
}

func TestEventProducerConsumer(t *testing.T) {
	data := uint64(0x6000)
	// CPU 0 produces after a delay; CPU 1 waits then reads.
	pb := asm.NewBuilder("producer")
	d := pb.Alloc()
	v := pb.Alloc()
	pb.Li(d, int64(data))
	pb.Li(v, 0)
	pb.ForI(0, 200, 1, func(i asm.Reg) { pb.Add(v, v, i) }) // delay work
	pb.Li(v, 99)
	pb.St(d, 0, v)
	pb.SetEv(3)
	pb.Halt()

	cb := asm.NewBuilder("consumer")
	d2 := cb.Alloc()
	v2 := cb.Alloc()
	out := cb.Alloc()
	cb.Li(d2, int64(data))
	cb.WaitEv(3)
	cb.Ld(v2, d2, 0)
	cb.Li(out, 0x7000)
	cb.St(out, 0, v2)
	cb.Halt()

	var m *vm.PagedMem
	res, err := Run([]*asm.Program{pb.MustBuild(), cb.MustBuild()},
		func(pm *vm.PagedMem) { m = pm }, cfgN(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Load(0x7000); got != 99 {
		t.Errorf("consumer read %d, want 99 (event did not order)", got)
	}
	// The consumer blocked early, so its wait-event must record W > 0.
	var found bool
	for _, e := range res.Trace.Events {
		if e.Instr.Op == isa.OpWaitEv {
			found = true
			if e.Wait == 0 {
				t.Error("WaitEv recorded zero wait despite producer delay")
			}
			if e.Latency == 0 {
				t.Error("WaitEv recorded zero transfer latency")
			}
		}
	}
	if !found {
		t.Fatal("no WaitEv in consumer trace")
	}
}

func TestWaitOnAlreadySetEvent(t *testing.T) {
	pb := asm.NewBuilder("setter")
	pb.SetEv(5)
	pb.Halt()
	cb := asm.NewBuilder("latecomer")
	// Long delay so the event is set well before the wait.
	r := cb.Alloc()
	cb.Li(r, 0)
	cb.ForI(0, 500, 1, func(i asm.Reg) { cb.Add(r, r, i) })
	cb.WaitEv(5)
	cb.Halt()
	res, err := Run([]*asm.Program{pb.MustBuild(), cb.MustBuild()}, nil, cfgN(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Trace.Events {
		if e.Instr.Op == isa.OpWaitEv && e.Wait != 0 {
			t.Errorf("late WaitEv recorded wait %d, want 0", e.Wait)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	// CPU 0 takes the lock and halts without releasing; CPU 1 blocks forever.
	hb := asm.NewBuilder("hog")
	lk := hb.Alloc()
	hb.Li(lk, 0x1000)
	hb.Lock(lk, 0)
	hb.Halt()
	wb := asm.NewBuilder("waiter")
	lk2 := wb.Alloc()
	wb.Li(lk2, 0x1000)
	r := wb.Alloc()
	wb.Li(r, 0)
	wb.ForI(0, 50, 1, func(i asm.Reg) { wb.Add(r, r, i) })
	wb.Lock(lk2, 0)
	wb.Halt()
	_, err := Run([]*asm.Program{hb.MustBuild(), wb.MustBuild()}, nil, cfgN(2, -1))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestUnlockOfFreeLockFails(t *testing.T) {
	b := asm.NewBuilder("bad")
	lk := b.Alloc()
	b.Li(lk, 0x1000)
	b.Unlock(lk, 0)
	b.Halt()
	if _, err := Run(same(1, b.MustBuild()), nil, cfgN(1, -1)); err == nil {
		t.Fatal("unlock of free lock did not error")
	}
}

func TestMissAnnotations(t *testing.T) {
	b := asm.NewBuilder("miss")
	base := b.Alloc()
	v := b.Alloc()
	b.Li(base, 0x100)
	b.Ld(v, base, 0)  // cold miss
	b.Ld(v, base, 8)  // same line: hit
	b.Ld(v, base, 16) // next line: miss
	b.Halt()
	res, err := Run(same(1, b.MustBuild()), nil, cfgN(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	var loads []bool
	var lats []uint32
	for _, e := range res.Trace.Events {
		if e.Instr.Op == isa.OpLd {
			loads = append(loads, e.Miss)
			lats = append(lats, e.Latency)
		}
	}
	wantMiss := []bool{true, false, true}
	wantLat := []uint32{50, 1, 50}
	if !reflect.DeepEqual(loads, wantMiss) || !reflect.DeepEqual(lats, wantLat) {
		t.Errorf("miss pattern = %v/%v, want %v/%v", loads, lats, wantMiss, wantLat)
	}
	d := res.Trace.Data()
	if d.Reads != 3 || d.ReadMisses != 2 {
		t.Errorf("Data() = %+v, want 3 reads, 2 misses", d)
	}
}

func TestDeterminism(t *testing.T) {
	const n = 4
	prog := lockCounter(0x1000, 0x2000, 10)
	r1, err := Run(same(n, prog), nil, cfgN(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(same(n, prog), nil, cfgN(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Trace.Events, r2.Trace.Events) {
		t.Error("two identical runs produced different traces")
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
}

func TestBusyCyclesEqualInstructions(t *testing.T) {
	prog := lockCounter(0x1000, 0x2000, 5)
	res, err := Run(same(2, prog), nil, cfgN(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Trace.Data().BusyCycles, res.CPUStats[0].Instructions; got != want {
		t.Errorf("trace busy cycles %d != executed instructions %d", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	prog := lockCounter(0, 8, 1)
	if _, err := Run(same(2, prog), nil, cfgN(3, 0)); err == nil {
		t.Error("mismatched program count accepted")
	}
	if _, err := Run(same(2, prog), nil, cfgN(2, 5)); err == nil {
		t.Error("out-of-range TraceCPU accepted")
	}
	if _, err := Run(nil, nil, Config{NumCPUs: 0, Mem: mem.DefaultConfig()}); err == nil {
		t.Error("zero CPUs accepted")
	}
}

func TestRunawayGuard(t *testing.T) {
	b := asm.NewBuilder("spin")
	b.Label("top")
	b.J("top")
	cfg := cfgN(1, -1)
	cfg.MaxInstrs = 1000
	if _, err := Run(same(1, b.MustBuild()), nil, cfg); err == nil {
		t.Fatal("runaway program not caught")
	}
}

// TestRecordAllTraces checks every processor's recorded trace: each is
// exactly sized and equals, event for event, the trace a run recording only
// that processor produces. The traces are long enough to span more than one
// chunk of the recording builder, and the lock makes blocked acquires whose
// events are patched on wakeup.
func TestRecordAllTraces(t *testing.T) {
	const n = 4
	prog := lockCounter(0x1000, 0x2000, 6000)
	cfg := cfgN(n, 1)
	cfg.RecordAll = true
	res, err := Run(same(n, prog), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != n {
		t.Fatalf("traces = %d, want %d", len(res.Traces), n)
	}
	for i, tr := range res.Traces {
		if tr == nil || tr.Len() == 0 {
			t.Fatalf("trace %d missing", i)
		}
		if tr.CPU != i {
			t.Errorf("trace %d labeled cpu %d", i, tr.CPU)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("trace %d: %v", i, err)
		}
		if uint64(tr.Len()) != res.CPUStats[i].Instructions {
			t.Errorf("trace %d length %d != instructions %d", i, tr.Len(), res.CPUStats[i].Instructions)
		}
		if cap(tr.Events) != tr.Len() {
			t.Errorf("trace %d: cap %d != len %d", i, cap(tr.Events), tr.Len())
		}
		one, err := Run(same(n, prog), nil, cfgN(n, i))
		if err != nil {
			t.Fatal(err)
		}
		if cap(one.Trace.Events) != one.Trace.Len() {
			t.Errorf("TraceCPU %d: cap %d != len %d", i, cap(one.Trace.Events), one.Trace.Len())
		}
		if !reflect.DeepEqual(one.Trace, tr) {
			t.Errorf("RecordAll trace %d differs from the TraceCPU=%d run's", i, i)
		}
	}
	// The primary trace aliases the RecordAll entry for the traced CPU.
	if res.Trace != res.Traces[1] {
		t.Error("Result.Trace does not alias Traces[TraceCPU]")
	}
}

func TestMemoryBandwidthContention(t *testing.T) {
	// Many CPUs missing simultaneously: finite bandwidth must queue them,
	// stretching recorded miss latencies beyond the base penalty.
	b := asm.NewBuilder("bw")
	base := b.Alloc()
	v := b.Alloc()
	b.Li(base, 0x100000)
	// Distinct lines per CPU so every access is a cold miss.
	b.Shli(v, asm.RegCPU, 12)
	b.Add(base, base, v)
	b.ForI(0, 20, 1, func(i asm.Reg) {
		b.Shli(v, i, 4)
		t2 := b.Alloc()
		b.Add(t2, base, v)
		b.Ld(v, t2, 0)
		b.Free(t2)
	})
	b.Halt()
	prog := b.MustBuild()

	unbounded := cfgN(8, 1)
	res1, err := Run(same(8, prog), nil, unbounded)
	if err != nil {
		t.Fatal(err)
	}
	limited := cfgN(8, 1)
	limited.MemIssueInterval = 10
	res2, err := Run(same(8, prog), nil, limited)
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	var max1, max2 uint32
	for _, e := range res1.Trace.Events {
		if e.Miss && e.Latency > max1 {
			max1 = e.Latency
		}
	}
	for _, e := range res2.Trace.Events {
		if e.Miss && e.Latency > max2 {
			max2 = e.Latency
		}
	}
	if max1 != 50 {
		t.Errorf("unbounded bandwidth max miss latency = %d, want 50", max1)
	}
	if max2 <= 50 {
		t.Errorf("limited bandwidth should queue misses: max latency = %d", max2)
	}
	if res2.Cycles <= res1.Cycles {
		t.Errorf("limited bandwidth should lengthen execution: %d vs %d", res2.Cycles, res1.Cycles)
	}
}
