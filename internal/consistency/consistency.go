// Package consistency encodes the memory consistency models of §2.1 of the
// paper — sequential consistency (SC), processor consistency (PC), weak
// ordering (WO), and release consistency (RC) — as issue-ordering predicates
// used by every processor model.
//
// The encoding follows the "straightforward implementations" of Figure 1: a
// memory or synchronization access may be issued to the memory system only
// when the accesses it is ordered after have performed. The predicate
// MayIssue receives a summary of the older not-yet-performed accesses of the
// same processor and decides whether a new access of a given kind may issue.
package consistency

import (
	"fmt"

	"dynsched/internal/isa"
)

// Model identifies a memory consistency model.
type Model uint8

const (
	// SC is Lamport's sequential consistency: accesses from one processor
	// perform strictly in program order.
	SC Model = iota
	// PC is processor consistency (Goodman): reads may bypass older writes,
	// but reads are ordered after older reads and writes after everything.
	PC
	// WO is weak ordering (Dubois et al.): synchronization accesses are
	// ordered after all older accesses and before all younger ones; data
	// accesses between synchronization points may overlap freely.
	WO
	// RC is release consistency (Gharachorloo et al.): like WO, but only
	// acquires block younger accesses and only releases wait for older
	// accesses; special accesses are sequentially consistent among
	// themselves (the RCsc variant).
	RC
)

// Models lists all supported models in presentation order.
var Models = []Model{SC, PC, WO, RC}

// String returns the conventional abbreviation.
func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case PC:
		return "PC"
	case WO:
		return "WO"
	case RC:
		return "RC"
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// ParseModel converts an abbreviation to a Model.
func ParseModel(s string) (Model, error) {
	for _, m := range Models {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("consistency: unknown model %q", s)
}

// Kind classifies an access for ordering purposes. It is a bit set: a
// barrier is both an acquire and a release.
type Kind uint8

const (
	Load    Kind = 1 << iota // data read
	Store                    // data write
	Acquire                  // acquire synchronization (lock, event wait, barrier)
	Release                  // release synchronization (unlock, event set, barrier)
)

// kinds holds the ordering kind of every Op value; non-memory, non-sync
// and undefined opcodes are 0.
var kinds = func() (t [256]Kind) {
	t[isa.OpLd] = Load
	t[isa.OpSt] = Store
	t[isa.OpLock], t[isa.OpWaitEv] = Acquire, Acquire
	t[isa.OpUnlock], t[isa.OpSetEv] = Release, Release
	t[isa.OpBarrier] = Acquire | Release
	return t
}()

// KindOf maps an opcode to its ordering kind. Non-memory, non-sync opcodes
// return 0.
func KindOf(op isa.Op) Kind { return kinds[op] }

// reads reports whether the access behaves as a read when the model draws
// no synchronization distinction (SC and PC treat an acquire as a read and
// a release as a write).
func (k Kind) reads() bool { return k&(Load|Acquire) != 0 }

// writes reports whether the access behaves as a write under SC/PC.
func (k Kind) writes() bool { return k&(Store|Release) != 0 }

// sync reports whether the access is a synchronization access.
func (k Kind) sync() bool { return k&(Acquire|Release) != 0 }

// Pending summarizes the older accesses of the same processor that have
// been decoded (are in flight) but have not yet performed.
type Pending struct {
	Loads    int // older unperformed data reads
	Stores   int // older unperformed data writes
	Acquires int // older unperformed acquires
	Releases int // older unperformed releases (a barrier counts as both)
}

// Total returns the total number of older unperformed accesses.
func (p Pending) Total() int { return p.Loads + p.Stores + p.Acquires + p.Releases }

func (p Pending) readsPending() int { return p.Loads + p.Acquires }
func (p Pending) syncPending() int  { return p.Acquires + p.Releases }

// MayIssue reports whether an access of kind k may be issued to the memory
// system given the summary of older unperformed accesses, under model m.
// This is the Figure 1 ordering relation.
func MayIssue(m Model, k Kind, p Pending) bool {
	switch m {
	case SC:
		// Every access waits for all older accesses.
		return p.Total() == 0
	case PC:
		// Reads wait for older reads only (they bypass older writes);
		// writes wait for everything. A barrier is read+write: use the
		// stricter rule.
		if k.writes() {
			return p.Total() == 0
		}
		return p.readsPending() == 0
	case WO:
		// Sync accesses wait for everything; data accesses wait only for
		// older sync accesses.
		if k.sync() {
			return p.Total() == 0
		}
		return p.syncPending() == 0
	case RC:
		// Everything waits for older acquires. Releases additionally wait
		// for all older accesses. Special accesses are kept sequentially
		// consistent among themselves (RCsc), so an acquire also waits for
		// older releases.
		if p.Acquires > 0 {
			return false
		}
		if k&Release != 0 {
			return p.Total() == 0
		}
		if k&Acquire != 0 {
			return p.syncPending() == 0
		}
		return true
	}
	return false
}

// AllowsLoadBypass reports whether the model permits a load to bypass
// pending writes in the store buffer (with dependence checking providing
// the correct value, §3.1). SC forbids it; the relaxed models allow it.
func AllowsLoadBypass(m Model) bool { return m != SC }

// HidesWriteLatency reports whether the model lets a simple write-buffered
// processor proceed past an incomplete write: under SC the next access may
// not issue until the write performs, so write latency is exposed.
// Used by documentation-oriented assertions in tests.
func HidesWriteLatency(m Model) bool { return m != SC }
