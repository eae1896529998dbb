package cpu

import (
	"math/rand/v2"
	"testing"

	"dynsched/internal/consistency"
)

// pendingOf adds op to the consistency.Pending summary p.
func pendingOf(op *memOp, p *consistency.Pending) {
	if op.kind&consistency.Load != 0 {
		p.Loads++
	}
	if op.kind&consistency.Store != 0 {
		p.Stores++
	}
	if op.kind&consistency.Acquire != 0 {
		p.Acquires++
	}
	if op.kind&consistency.Release != 0 {
		p.Releases++
	}
}

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

// issueOneRescan is the static models' issue rule before they shared the
// port: scan the accesses in program order and pick the first unissued one
// the model allows against the unperformed accesses before it. A load
// forwards from an older unperformed store to its address in one cycle
// where the model lets loads bypass stores. It returns the pick and its
// latency without issuing it, or nil.
func issueOneRescan(ops []*memOp, model consistency.Model) (*memOp, uint64) {
	var pend consistency.Pending
	for i, op := range ops {
		if op.performed {
			continue
		}
		if !op.issued && consistency.MayIssue(model, op.kind, pend) {
			lat := uint64(op.latency)
			if op.kind == consistency.Load && consistency.AllowsLoadBypass(model) && forwardableIn(ops[:i], op.addr) {
				lat = 1
			}
			return op, lat
		}
		pendingOf(op, &pend)
	}
	return nil, 0
}

// portKinds are the access kinds the port tests draw from: loads, stores,
// acquires, releases and barriers.
var portKinds = []consistency.Kind{
	consistency.Load, consistency.Load, consistency.Store, consistency.Store,
	consistency.Acquire, consistency.Release, consistency.Acquire | consistency.Release,
}

// TestPortMatchesRescan is the property test behind the memory port that
// SSBR, SS and DS share. CI runs it as part of the memory port equivalence
// gate.
func TestPortMatchesRescan(t *testing.T) {
	t.Run("DS", portMatchesRescanDS)
	t.Run("static", portMatchesRescanStatic)
}

// portMatchesRescanDS drives the port as DS does: under random adds (with
// store addresses drawn from a few aliasing words), out-of-order ready
// transitions, issues, prefetches and out-of-order performs, the port's
// answers after every step equal a brute-force rescan of the live
// accesses:
//   - the candidates are the ready, unissued accesses in program order,
//     and the per-kind counts, the kind mask and the count of unprefetched
//     misses describe them;
//   - for every live seq, each kind's pending bit and every model's
//     MayIssue verdict for every kind agree with pendingBefore;
//   - for every live seq and address, forwardable agrees with forwardableIn;
//   - oldest is the oldest unperformed access, and lookup finds every
//     unperformed access by its seq.
func portMatchesRescanDS(t *testing.T) {
	kinds := portKinds
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
					p.prefetch(op, 0)
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
				if op.performed {
					want = nil
				}
				if got := p.lookup(op.seq, op.kind); got != want {
					t.Fatalf("seed %d step %d: lookup(%d) = %v, want %v", seed, step, op.seq, got, want)
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

// portMatchesRescanStatic drives the port as SSBR and SS do, under each
// model: every access is ready when it is added, the shared issueMem with
// the DS policies off issues at most one access per step, and issued
// accesses perform out of program order, found through lookup as their
// perform events find them. At every step issueMem picks the access
// issueOneRescan picks, with the same latency (so it forwards exactly
// when the rescan does), and schedules one perform event for it; oldest,
// the stall culprit, is the oldest unperformed access; lookup finds every
// unperformed access and nothing for a performed one; and the count of
// outstanding misses is the number of issued, unperformed accesses that
// take more than a cycle.
func portMatchesRescanStatic(t *testing.T) {
	var issues, forwards int
	for _, model := range consistency.Models {
		cfg := Config{Model: model}
		for seed := uint64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0x57a7))
			p := newMemPort()
			var evq eventHeap
			var all []*memOp // the accesses from the oldest unperformed one on
			var performed []*memOp
			seq := 0
			for step := uint64(0); step < 1500; step++ {
				switch r := rng.IntN(10); {
				case len(all) < 40 && r < 4:
					op := &memOp{
						seq: seq, kind: portKinds[rng.IntN(len(portKinds))],
						addr: uint64(rng.IntN(4)) * 8, latency: uint32(1 + rng.IntN(4)),
					}
					op.miss = op.latency > 1
					seq += 1 + rng.IntN(3)
					all = append(all, op)
					p.add(op)
					p.ready(op)
				case r < 7:
					want, lat := issueOneRescan(all, model)
					evq = evq[:0]
					got := issueMem(&p, step, &cfg, &evq, nil)
					if got != (want != nil) {
						t.Fatalf("%v seed %d step %d: issueMem issued %t, rescan picks %v", model, seed, step, got, want)
					}
					if want == nil {
						break
					}
					if !want.issued || want.performAt != step+lat || want.issuedAt != step {
						t.Fatalf("%v seed %d step %d: rescan picks seq %d (latency %d); port issued=%t at %d performing at %d",
							model, seed, step, want.seq, lat, want.issued, want.issuedAt, want.performAt)
					}
					if len(evq) != 1 || evq[0] != (dsEvent{at: step + lat, kind: evPerform, mem: want.kind, seq: want.seq}) {
						t.Fatalf("%v seed %d step %d: perform events %v for seq %d at %d", model, seed, step, evq, want.seq, step+lat)
					}
					issues++
					if lat < uint64(want.latency) {
						forwards++
					}
				default:
					var cand []*memOp
					for _, op := range all {
						if op.issued && !op.performed {
							cand = append(cand, op)
						}
					}
					if len(cand) > 0 {
						op := cand[rng.IntN(len(cand))]
						if got := p.lookup(op.seq, op.kind); got != op {
							t.Fatalf("%v seed %d step %d: lookup(%d) = %v, want %v", model, seed, step, op.seq, got, op)
						}
						p.perform(op)
						performed = append(performed, op)
					}
				}

				var wantOldest *memOp
				wantMiss := 0
				for _, op := range all {
					if op.performed {
						continue
					}
					if wantOldest == nil {
						wantOldest = op
					}
					if got := p.lookup(op.seq, op.kind); got != op {
						t.Fatalf("%v seed %d step %d: lookup(%d) = %v, want %v", model, seed, step, op.seq, got, op)
					}
					if op.issued && op.performAt > op.issuedAt+1 {
						wantMiss++
					}
				}
				if got := p.oldest(); got != wantOldest {
					t.Fatalf("%v seed %d step %d: oldest %v, want %v", model, seed, step, got, wantOldest)
				}
				if p.outMiss != wantMiss {
					t.Fatalf("%v seed %d step %d: %d outstanding misses, want %d", model, seed, step, p.outMiss, wantMiss)
				}
				for _, op := range performed[max(len(performed)-8, 0):] {
					if got := p.lookup(op.seq, op.kind); got != nil {
						t.Fatalf("%v seed %d step %d: lookup(%d) of a performed access = %v", model, seed, step, op.seq, got)
					}
				}
				for len(all) > 0 && all[0].performed {
					all = all[1:]
				}
			}
		}
	}
	if issues == 0 || forwards == 0 {
		t.Fatalf("%d issues, %d of them forwarded: the drive misses a path", issues, forwards)
	}
	t.Logf("%d issues checked, %d forwarded", issues, forwards)
}
