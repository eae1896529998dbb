package obs

// Tests for the job board's bounded finished-job retention: a long-lived
// -serve process must not grow without bound, yet the summary
// counters must keep every outcome and live jobs must never be evicted.

import (
	"errors"
	"sync"
	"testing"
)

func TestJobBoardRetentionEvictsOldestFinished(t *testing.T) {
	b := NewJobBoard()
	b.SetRetention(4)
	for i := 0; i < 10; i++ {
		id := b.Enqueue("job")
		b.Start(id)
		if i%3 == 2 {
			b.Finish(id, errors.New("boom"))
		} else {
			b.Finish(id, nil)
		}
	}
	st := b.Status()
	if len(st.Jobs) != 4 {
		t.Fatalf("retained %d jobs, want 4", len(st.Jobs))
	}
	// The retained entries are the newest finishes, ids 6..9.
	if st.Jobs[0].ID != 6 || st.Jobs[3].ID != 9 {
		t.Errorf("retained ids %d..%d, want 6..9", st.Jobs[0].ID, st.Jobs[3].ID)
	}
	// Summary counters still see all ten outcomes: ids 2, 5, 8 failed.
	if st.Done != 7 || st.Failed != 3 {
		t.Errorf("done/failed = %d/%d, want 7/3", st.Done, st.Failed)
	}
	if st.Evicted != 6 {
		t.Errorf("evicted = %d, want 6", st.Evicted)
	}
}

func TestJobBoardRetentionSparesLiveJobs(t *testing.T) {
	b := NewJobBoard()
	b.SetRetention(2)
	queued := b.Enqueue("still queued")
	running := b.Enqueue("still running")
	b.Start(running)
	for i := 0; i < 8; i++ {
		id := b.Enqueue("done")
		b.Start(id)
		b.Finish(id, nil)
	}
	st := b.Status()
	if st.Queued != 1 || st.Running != 1 {
		t.Fatalf("live jobs evicted: %+v", st)
	}
	if len(st.Jobs) != 4 { // 2 live + 2 retained finished
		t.Errorf("retained %d jobs, want 4", len(st.Jobs))
	}
	if st.Jobs[0].ID != queued || st.Jobs[1].ID != running {
		t.Errorf("live jobs %d, %d missing from %+v", queued, running, st.Jobs)
	}
	if st.Done != 8 || st.Evicted != 6 {
		t.Errorf("done/evicted = %d/%d, want 8/6", st.Done, st.Evicted)
	}
}

// SetRetention applied after the fact trims immediately; ids keep counting
// up so late Status readers still see a stable, monotonic id space.
func TestJobBoardSetRetentionTrims(t *testing.T) {
	b := NewJobBoard()
	for i := 0; i < 6; i++ {
		id := b.Enqueue("job")
		b.Finish(id, nil)
	}
	b.SetRetention(1)
	st := b.Status()
	if len(st.Jobs) != 1 || st.Jobs[0].ID != 5 {
		t.Fatalf("retained %+v, want only id 5", st.Jobs)
	}
	if id := b.Enqueue("next"); id != 6 {
		t.Errorf("next id = %d, want 6", id)
	}
}

// Concurrent finishes under a tight cap; meaningful under -race.
func TestJobBoardRetentionConcurrent(t *testing.T) {
	b := NewJobBoard()
	b.SetRetention(8)
	const n = 128
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := b.Enqueue("job")
			b.Start(id)
			_ = b.Status()
			b.Finish(id, nil)
		}()
	}
	wg.Wait()
	st := b.Status()
	if st.Done != n {
		t.Errorf("done = %d, want %d", st.Done, n)
	}
	if len(st.Jobs) != 8 || st.Evicted != n-8 {
		t.Errorf("retained %d evicted %d, want 8 and %d", len(st.Jobs), st.Evicted, n-8)
	}
}

func TestJobBoardCachedLifecycle(t *testing.T) {
	b := NewJobBoard()
	hit := b.Enqueue("lu BASE")
	miss := b.Enqueue("lu SC-SS")
	// A cache hit never starts: Enqueue -> FinishCached, no Start.
	b.FinishCached(hit)
	b.Start(miss)
	b.Finish(miss, nil)
	st := b.Status()
	if st.Cached != 1 || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("cached/done/failed = %d/%d/%d, want 1/1/0", st.Cached, st.Done, st.Failed)
	}
	if got := st.Jobs[0].State; got != JobCached {
		t.Fatalf("hit job state = %q, want %q", got, JobCached)
	}
	// Cached is terminal: a later Finish (the scheduler's deferred cleanup)
	// must not demote it to done or failed.
	b.Finish(hit, errors.New("late"))
	if st := b.Status(); st.Cached != 1 || st.Failed != 0 {
		t.Fatalf("cached state overwritten: %+v", st)
	}
	// And FinishCached must not overwrite a real outcome.
	b.FinishCached(miss)
	if st := b.Status(); st.Done != 1 || st.Cached != 1 {
		t.Fatalf("done state overwritten by FinishCached: %+v", st)
	}
}

func TestJobBoardCachedSurvivesEviction(t *testing.T) {
	b := NewJobBoard()
	b.SetRetention(2)
	for i := 0; i < 8; i++ {
		id := b.Enqueue("job")
		if i%2 == 0 {
			b.FinishCached(id)
		} else {
			b.Start(id)
			b.Finish(id, nil)
		}
	}
	st := b.Status()
	if st.Cached != 4 || st.Done != 4 {
		t.Fatalf("cached/done = %d/%d after eviction, want 4/4", st.Cached, st.Done)
	}
	if st.Evicted != 6 {
		t.Fatalf("evicted = %d, want 6", st.Evicted)
	}
}
