// The tests in this file encode Figure 1 of the paper: the completion-order
// restrictions each consistency model places on accesses from one processor.
package consistency

import (
	"testing"
	"testing/quick"

	"dynsched/internal/isa"
)

func TestStrings(t *testing.T) {
	for _, m := range Models {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%v.String()) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseModel("XX"); err == nil {
		t.Error("ParseModel accepted junk")
	}
}

func TestKindOf(t *testing.T) {
	cases := []struct {
		op   isa.Op
		want Kind
	}{
		{isa.OpLd, Load},
		{isa.OpSt, Store},
		{isa.OpLock, Acquire},
		{isa.OpWaitEv, Acquire},
		{isa.OpUnlock, Release},
		{isa.OpSetEv, Release},
		{isa.OpBarrier, Acquire | Release},
		{isa.OpAdd, 0},
		{isa.OpBeqz, 0},
	}
	for _, c := range cases {
		if got := KindOf(c.op); got != c.want {
			t.Errorf("KindOf(%v) = %v, want %v", c.op, got, c.want)
		}
	}
}

// --- SC: serial order (Figure 1, leftmost column) -------------------------

func TestSCIsSerial(t *testing.T) {
	// Any pending access blocks any new access.
	for _, k := range []Kind{Load, Store, Acquire, Release} {
		if !MayIssue(SC, k, Pending{}) {
			t.Errorf("SC: %v blocked with nothing pending", k)
		}
		for _, p := range []Pending{{Loads: 1}, {Stores: 1}, {Acquires: 1}, {Releases: 1}} {
			if MayIssue(SC, k, p) {
				t.Errorf("SC: %v allowed to issue past pending %+v", k, p)
			}
		}
	}
}

// --- PC: reads bypass writes (Figure 1, second column) ---------------------

func TestPCReadBypassesWrite(t *testing.T) {
	if !MayIssue(PC, Load, Pending{Stores: 3}) {
		t.Error("PC: read must be able to bypass pending writes")
	}
	if !MayIssue(PC, Load, Pending{Stores: 1, Releases: 1}) {
		t.Error("PC: read must bypass pending releases (writes) too")
	}
}

func TestPCReadsSerialized(t *testing.T) {
	if MayIssue(PC, Load, Pending{Loads: 1}) {
		t.Error("PC: read must wait for older reads")
	}
	if MayIssue(PC, Load, Pending{Acquires: 1}) {
		t.Error("PC: read must wait for older acquire (a read under PC)")
	}
}

func TestPCWritesWaitForEverything(t *testing.T) {
	if MayIssue(PC, Store, Pending{Loads: 1}) {
		t.Error("PC: write must wait for older reads")
	}
	if MayIssue(PC, Store, Pending{Stores: 1}) {
		t.Error("PC: write must wait for older writes")
	}
	if !MayIssue(PC, Store, Pending{}) {
		t.Error("PC: write with empty pipeline blocked")
	}
}

// --- WO: ordering only at sync points (Figure 1, third column) ------------

func TestWODataOverlapsBetweenSyncs(t *testing.T) {
	if !MayIssue(WO, Load, Pending{Loads: 2, Stores: 3}) {
		t.Error("WO: data read must overlap with pending data accesses")
	}
	if !MayIssue(WO, Store, Pending{Loads: 2, Stores: 3}) {
		t.Error("WO: data write must overlap with pending data accesses")
	}
}

func TestWOSyncIsFence(t *testing.T) {
	for _, k := range []Kind{Acquire, Release, Acquire | Release} {
		if MayIssue(WO, k, Pending{Loads: 1}) {
			t.Errorf("WO: sync %v must wait for older data accesses", k)
		}
	}
	if MayIssue(WO, Load, Pending{Acquires: 1}) {
		t.Error("WO: data access must wait for older sync")
	}
	if MayIssue(WO, Store, Pending{Releases: 1}) {
		t.Error("WO: data access must wait for older release under WO")
	}
}

// --- RC: acquire/release asymmetry (Figure 1, rightmost column) -----------

func TestRCDataBypassesRelease(t *testing.T) {
	// The defining relaxation over WO: accesses after a release need not
	// wait for it.
	if !MayIssue(RC, Load, Pending{Releases: 1}) {
		t.Error("RC: read must overlap with a pending release")
	}
	if !MayIssue(RC, Store, Pending{Releases: 1}) {
		t.Error("RC: write must overlap with a pending release")
	}
}

func TestRCAcquireBlocksYounger(t *testing.T) {
	for _, k := range []Kind{Load, Store, Acquire, Release} {
		if MayIssue(RC, k, Pending{Acquires: 1}) {
			t.Errorf("RC: %v must wait for pending acquire", k)
		}
	}
}

func TestRCReleaseWaitsForOlder(t *testing.T) {
	if MayIssue(RC, Release, Pending{Loads: 1}) {
		t.Error("RC: release must wait for older reads")
	}
	if MayIssue(RC, Release, Pending{Stores: 1}) {
		t.Error("RC: release must wait for older writes")
	}
	if !MayIssue(RC, Release, Pending{}) {
		t.Error("RC: release with empty pipeline blocked")
	}
}

func TestRCDataOverlapsData(t *testing.T) {
	if !MayIssue(RC, Load, Pending{Loads: 5, Stores: 5}) {
		t.Error("RC: reads must overlap with pending data accesses")
	}
	if !MayIssue(RC, Store, Pending{Loads: 5, Stores: 5}) {
		t.Error("RC: writes must overlap with pending data accesses")
	}
}

func TestRCSyncSCAmongThemselves(t *testing.T) {
	if MayIssue(RC, Acquire, Pending{Releases: 1}) {
		t.Error("RCsc: acquire must wait for older release")
	}
	if !MayIssue(RC, Acquire, Pending{Loads: 3}) {
		t.Error("RC: acquire need not wait for older data reads")
	}
}

// --- cross-model relations -------------------------------------------------

// Property: the models form a strictness hierarchy on every data-access
// decision: anything SC allows, PC allows; anything PC allows for data, WO
// and RC... (WO and PC are incomparable in general, but RC is weaker than
// WO, and SC is the strictest of all). We check SC⊆PC, SC⊆WO, WO⊆RC.
func TestStrictnessHierarchy(t *testing.T) {
	f := func(kSeed uint8, loads, stores, acqs, rels uint8) bool {
		kinds := []Kind{Load, Store, Acquire, Release, Acquire | Release}
		k := kinds[int(kSeed)%len(kinds)]
		p := Pending{
			Loads:    int(loads % 4),
			Stores:   int(stores % 4),
			Acquires: int(acqs % 4),
			Releases: int(rels % 4),
		}
		if MayIssue(SC, k, p) && !MayIssue(PC, k, p) {
			return false
		}
		if MayIssue(SC, k, p) && !MayIssue(WO, k, p) {
			return false
		}
		if MayIssue(WO, k, p) && !MayIssue(RC, k, p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with nothing pending, every model allows every access.
func TestEmptyPipelineAlwaysIssues(t *testing.T) {
	for _, m := range Models {
		for _, k := range []Kind{Load, Store, Acquire, Release, Acquire | Release} {
			if !MayIssue(m, k, Pending{}) {
				t.Errorf("%v: %v blocked on empty pipeline", m, k)
			}
		}
	}
}

func TestLoadBypass(t *testing.T) {
	if AllowsLoadBypass(SC) {
		t.Error("SC must not allow store-buffer bypass")
	}
	for _, m := range []Model{PC, WO, RC} {
		if !AllowsLoadBypass(m) {
			t.Errorf("%v must allow store-buffer bypass", m)
		}
	}
}

// kindOfSwitch is KindOf as a multi-way branch, before it became a lookup
// in kinds.
func kindOfSwitch(op isa.Op) Kind {
	switch op {
	case isa.OpLd:
		return Load
	case isa.OpSt:
		return Store
	case isa.OpLock, isa.OpWaitEv:
		return Acquire
	case isa.OpUnlock, isa.OpSetEv:
		return Release
	case isa.OpBarrier:
		return Acquire | Release
	}
	return 0
}

// TestKindTableMatchesSwitch checks KindOf for every one of the 256 Op
// values, defined or not.
func TestKindTableMatchesSwitch(t *testing.T) {
	for v := 0; v < 256; v++ {
		op := isa.Op(v)
		if got, want := KindOf(op), kindOfSwitch(op); got != want {
			t.Errorf("KindOf(%v) = %d, want %d", op, got, want)
		}
	}
}
