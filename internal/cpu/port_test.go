package cpu

import (
	"math/rand/v2"
	"testing"

	"dynsched/internal/consistency"
)

// pendingBefore is the rescanning reference for memPort's summary: the
// consistency.Pending counts of the unperformed accesses in ops older than
// seq.
func pendingBefore(ops []*memOp, seq int) consistency.Pending {
	var p consistency.Pending
	for _, op := range ops {
		if !op.performed && op.seq < seq {
			pendingOf(op, &p)
		}
	}
	return p
}

// forwardableIn is the rescanning reference for memPort.forwardable: does
// older contain an unperformed store to addr?
func forwardableIn(older []*memOp, addr uint64) bool {
	for _, m := range older {
		if !m.performed && m.kind&consistency.Store != 0 && m.addr == addr {
			return true
		}
	}
	return false
}

// TestPortMatchesRescan is the property test behind the DS memory port:
// under random adds (loads, stores, acquires, releases and barriers, with
// store addresses drawn from a few aliasing words), out-of-order ready
// transitions, issues and out-of-order performs, the port's answers after
// every step equal a brute-force rescan of the live accesses:
//   - the candidates are the ready, unissued accesses in program order,
//     and the per-kind counts, the kind mask and the count of unprefetched
//     misses describe them;
//   - for every live seq, each kind's pending bit and every model's
//     MayIssue verdict for every kind agree with pendingBefore;
//   - for every live seq and address, forwardable agrees with forwardableIn;
//   - oldest is the oldest unperformed access, and retired finds every
//     unperformed store and release.
//
// CI runs this test as part of the DS memory port equivalence gate.
func TestPortMatchesRescan(t *testing.T) {
	kinds := []consistency.Kind{
		consistency.Load, consistency.Load, consistency.Store, consistency.Store,
		consistency.Acquire, consistency.Release, consistency.Acquire | consistency.Release,
	}
	var checks int
	for seed := uint64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x90f7))
		p := newMemPort()
		var all []*memOp // the accesses from the oldest unperformed one on, at most 48
		seq := 0
		for step := 0; step < 1500; step++ {
			var waiting []*memOp // not yet ready
			for _, op := range all {
				if !op.addrReady {
					waiting = append(waiting, op)
				}
			}
			switch r := rng.IntN(10); {
			case len(all) < 48 && r < 4:
				op := &memOp{seq: seq, kind: kinds[rng.IntN(len(kinds))], addr: uint64(rng.IntN(4)) * 8, miss: rng.IntN(2) == 0}
				seq += 1 + rng.IntN(3) // gaps, as non-memory instructions leave
				all = append(all, op)
				p.add(op)
			case r < 6 && len(waiting) > 0:
				op := waiting[rng.IntN(len(waiting))]
				op.addrReady = true
				p.ready(op)
			case r < 8 && len(p.cands) > 0:
				i := rng.IntN(len(p.cands))
				if op := p.cands[i]; op.miss && !op.prefetched && rng.IntN(2) == 0 {
					p.prefetch(op)
					break
				}
				p.cands[i].issued = true
				p.issue(i)
			default:
				// Perform a random issued access, out of program order.
				var cand []*memOp
				for _, op := range all {
					if op.issued && !op.performed {
						cand = append(cand, op)
					}
				}
				if len(cand) > 0 {
					p.perform(cand[rng.IntN(len(cand))])
				}
			}

			var wantCands []*memOp
			var wantOldest *memOp
			var wantKinds [1 << numKinds]int
			var wantPresent uint16
			wantUnfetched := 0
			for _, op := range all {
				if op.addrReady && !op.issued {
					wantCands = append(wantCands, op)
					wantKinds[op.kind]++
					wantPresent |= 1 << op.kind
					if op.miss && !op.prefetched {
						wantUnfetched++
					}
				}
				if !op.performed && wantOldest == nil {
					wantOldest = op
				}
			}
			if len(wantCands) != len(p.cands) {
				t.Fatalf("seed %d step %d: %d candidates, want %d", seed, step, len(p.cands), len(wantCands))
			}
			for i := range wantCands {
				if p.cands[i] != wantCands[i] {
					t.Fatalf("seed %d step %d: cands[%d] is seq %d, want %d", seed, step, i, p.cands[i].seq, wantCands[i].seq)
				}
			}
			if p.candKinds != wantKinds || p.present != wantPresent || p.unfetched != wantUnfetched {
				t.Fatalf("seed %d step %d: kinds %v mask %b unfetched %d, want %v %b %d", seed, step,
					p.candKinds, p.present, p.unfetched, wantKinds, wantPresent, wantUnfetched)
			}
			if got := p.oldest(); got != wantOldest {
				t.Fatalf("seed %d step %d: oldest %v, want %v", seed, step, got, wantOldest)
			}

			// Below the oldest unperformed access every summary is empty;
			// check one seq there and every seq above it.
			lo := seq
			if wantOldest != nil {
				lo = wantOldest.seq
			}
			f := p.front
			n := 0 // all[:n] is older than s
			for s := max(lo-1, 0); s <= seq; s++ {
				want, got := pendingBefore(all, s), f.pending(s)
				if (want.Loads > 0) != (got.Loads > 0) || (want.Stores > 0) != (got.Stores > 0) ||
					(want.Acquires > 0) != (got.Acquires > 0) || (want.Releases > 0) != (got.Releases > 0) {
					t.Fatalf("seed %d step %d seq %d: pending %+v, rescan %+v", seed, step, s, got, want)
				}
				for _, m := range consistency.Models {
					for _, k := range kinds {
						if consistency.MayIssue(m, k, got) != consistency.MayIssue(m, k, want) {
							t.Fatalf("seed %d step %d seq %d: MayIssue(%v, %v) differs", seed, step, s, m, k)
						}
					}
				}
				for n < len(all) && all[n].seq < s {
					n++
				}
				for addr := uint64(0); addr < 40; addr += 8 {
					if got, want := p.forwardable(s, addr), forwardableIn(all[:n], addr); got != want {
						t.Fatalf("seed %d step %d seq %d addr %d: forwardable %v, rescan %v", seed, step, s, addr, got, want)
					}
				}
				checks++
			}
			for _, op := range all {
				want := op
				if op.performed || op.kind&(consistency.Store|consistency.Release) == 0 {
					want = nil
				}
				if got := p.retired(op.seq); got != want {
					t.Fatalf("seed %d step %d: retired(%d) = %v, want %v", seed, step, op.seq, got, want)
				}
			}
			// A performed prefix no longer changes any reference answer.
			for len(all) > 0 && all[0].performed {
				all = all[1:]
			}
		}
	}
	t.Logf("%d (step, seq) summaries checked", checks)
}
