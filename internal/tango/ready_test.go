package tango

import (
	"math/rand/v2"
	"testing"
)

// TestReadyQueueMatchesHeap is the property test behind the scheduler's
// time wheel: under random pushes at now+d for d in [0, 3×wheelSpan], with
// ids spanning three mask words and repeated (at, id) pairs, the ready
// queue pops exactly the sequence a plain procHeap pops, with duplicate
// (at, id) pairs collapsed. CI runs this test as part of the scheduler
// equivalence gate.
func TestReadyQueueMatchesHeap(t *testing.T) {
	const numIDs = 130 // three mask words per bucket
	edges := []uint64{0, 1, wheelSpan - 1, wheelSpan, wheelSpan + 1, 2 * wheelSpan, 3 * wheelSpan}
	var pops, farOnly int
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x7a9e))
		q := newReadyQueue(numIDs)
		var ref procHeap
		var pushed []procEntry
		popped := 0

		push := func(e procEntry) {
			q.push(e.at, e.id)
			ref.push(e)
			pushed = append(pushed, e)
		}
		pop := func() {
			if q.firstBucket() < 0 && len(q.far) > 0 {
				farOnly++
			}
			want := ref.pop()
			for len(ref) > 0 && ref[0] == want {
				ref.pop() // collapse duplicates
			}
			got, ok := q.pop()
			if !ok || got != want {
				t.Fatalf("seed %d pop %d: got %+v (ok=%v), want %+v", seed, popped, got, ok, want)
			}
			popped++
			pops++
		}

		for round := 0; round < 60; round++ {
			// Far-only rounds leave the wheel empty while the overflow heap
			// holds every pending wakeup.
			farRound := rng.IntN(4) == 0
			for n := rng.IntN(12); n >= 0; n-- {
				var d uint64
				switch {
				case len(pushed) > 0 && rng.IntN(8) == 0:
					// Repeat an earlier pair if it is still not before now.
					if e := pushed[rng.IntN(len(pushed))]; e.at >= q.now {
						push(e)
						continue
					}
				case farRound:
					d = wheelSpan + rng.Uint64N(2*wheelSpan+1)
				case rng.IntN(4) == 0:
					d = edges[rng.IntN(len(edges))]
				default:
					d = rng.Uint64N(3*wheelSpan + 1)
				}
				push(procEntry{at: q.now + d, id: rng.IntN(numIDs)})
			}
			for n := rng.IntN(16); n > 0 && len(ref) > 0; n-- {
				pop()
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if e, ok := q.pop(); ok {
			t.Fatalf("seed %d: queue still holds %+v after the reference drained", seed, e)
		}
		if q.occ != [wheelSpan / 64]uint64{} {
			t.Fatalf("seed %d: drained wheel still marks buckets occupied: %x", seed, q.occ)
		}
	}
	if farOnly == 0 {
		t.Fatal("no pop found the wheel empty with the overflow heap non-empty")
	}
	t.Logf("%d pops, %d from an empty wheel", pops, farOnly)
}
