package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestProgressLaneMultiplexing drives two lanes the way two concurrent
// simulations would and checks the ticker output: one row per live lane,
// an aggregate [total] row, and a done line when a lane retires.
func TestProgressLaneMultiplexing(t *testing.T) {
	var buf strings.Builder
	p := NewProgress(&buf, time.Hour) // ticks driven by hand via report
	p.Start()

	lu := p.Lane("lu")
	mp3d := p.Lane("mp3d")
	lu.Publish(100, 400)
	lu.SetTotal(1000)
	mp3d.Publish(200, 800)

	p.report(false)
	out := buf.String()
	for _, want := range []string{"progress [lu]", "progress [mp3d]", "[total]"} {
		if !strings.Contains(out, want) {
			t.Errorf("tick output missing %q:\n%s", want, out)
		}
	}

	// Retire one lane: the next tick prints its done line and folds its
	// counts into the aggregate.
	buf.Reset()
	lu.Done()
	p.report(false)
	out = buf.String()
	if !strings.Contains(out, "progress [lu] done:") {
		t.Errorf("no done line for retired lane:\n%s", out)
	}
	if strings.Contains(out, "progress [lu] 100") {
		t.Errorf("retired lane still has a live row:\n%s", out)
	}

	mp3d.Done()
	buf.Reset()
	p.Stop()
	out = buf.String()
	if !strings.Contains(out, "300 instrs") {
		t.Errorf("final summary did not aggregate lane counts:\n%s", out)
	}
}

// TestProgressStatusAggregatesLanes checks the /progress JSON view.
func TestProgressStatusAggregatesLanes(t *testing.T) {
	p := NewProgress(&strings.Builder{}, time.Hour)
	p.Start()
	defer p.Stop()
	a := p.Lane("a")
	b := p.Lane("b")
	a.Publish(100, 200)
	a.SetTotal(400)
	b.Add(50, 60)
	b.Add(50, 60)

	st := p.Status()
	if !st.Running {
		t.Error("status not running after Start")
	}
	if st.Instrs != 200 || st.Cycles != 320 || st.TotalInstrs != 400 {
		t.Errorf("aggregate = %+v", st)
	}
	if len(st.Lanes) != 2 || st.Lanes[0].Label != "a" || st.Lanes[1].Instrs != 100 {
		t.Errorf("lanes = %+v", st.Lanes)
	}
	if st.ETASeconds <= 0 {
		t.Errorf("ETA = %v, want > 0 with total set", st.ETASeconds)
	}

	var nilP *Progress
	if got := nilP.Status(); got.Running || got.Instrs != 0 {
		t.Errorf("nil progress status = %+v", got)
	}
}

// TestLaneConcurrentPublish exercises many lanes publishing while the
// reporter runs; meaningful under -race.
func TestLaneConcurrentPublish(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	p := NewProgress(w, time.Millisecond)
	p.Start()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := p.Lane("lane")
			for i := uint64(1); i <= 500; i++ {
				l.Publish(i, 2*i)
				if i%100 == 0 {
					_ = p.Status()
				}
			}
			l.Done()
		}(g)
	}
	wg.Wait()
	p.Stop()
	st := p.Status()
	if st.Instrs != 8*500 {
		t.Errorf("final instrs = %d, want %d", st.Instrs, 8*500)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestLaneNilSafety(t *testing.T) {
	var p *Progress
	l := p.Lane("x")
	if l != nil {
		t.Fatal("nil progress returned a non-nil lane")
	}
	l.Publish(1, 2)
	l.Add(1, 2)
	l.SetTotal(5)
	l.Done()
}

func TestJobBoardLifecycle(t *testing.T) {
	b := NewJobBoard()
	id1 := b.Enqueue("lu BASE")
	id2 := b.Enqueue("lu RC-DS64")
	id3 := b.Enqueue("mp3d BASE")
	if id1 != 0 || id2 != 1 || id3 != 2 {
		t.Fatalf("ids = %d, %d, %d", id1, id2, id3)
	}

	st := b.Status()
	if st.Queued != 3 || st.Running+st.Done+st.Failed != 0 {
		t.Errorf("initial status = %+v", st)
	}

	b.Start(id1)
	b.Finish(id1, nil)
	b.Start(id2)
	b.Finish(id2, errors.New("replay exploded"))
	b.Start(id3)

	st = b.Status()
	if st.Done != 1 || st.Failed != 1 || st.Running != 1 || st.Queued != 0 {
		t.Errorf("status = %+v", st)
	}
	if st.Jobs[0].State != JobDone || st.Jobs[0].WallSeconds < 0 {
		t.Errorf("job 0 = %+v", st.Jobs[0])
	}
	if st.Jobs[1].State != JobFailed || st.Jobs[1].Err != "replay exploded" {
		t.Errorf("job 1 = %+v", st.Jobs[1])
	}
	if st.Jobs[2].State != JobRunning {
		t.Errorf("job 2 = %+v", st.Jobs[2])
	}

	// Finish without Start backfills the start time rather than reporting a
	// bogus multi-decade wall time.
	id4 := b.Enqueue("late")
	b.Finish(id4, nil)
	st = b.Status()
	if w := st.Jobs[3].WallSeconds; w < 0 || w > 1 {
		t.Errorf("unstarted-finish wall seconds = %v", w)
	}

	// Nil board and out-of-range ids are no-ops.
	var nb *JobBoard
	if id := nb.Enqueue("x"); id != -1 {
		t.Errorf("nil Enqueue = %d, want -1", id)
	}
	nb.Start(0)
	nb.Finish(0, nil)
	if st := nb.Status(); len(st.Jobs) != 0 {
		t.Errorf("nil board status = %+v", st)
	}
	b.Start(-1)
	b.Finish(99, nil)
}

// TestJobBoardConcurrent hammers the board from many goroutines; meaningful
// under -race.
func TestJobBoardConcurrent(t *testing.T) {
	b := NewJobBoard()
	const n = 64
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
	if st.Done != n || st.Queued != 0 || st.Running != 0 {
		t.Errorf("final status = %+v", st)
	}
}
