package obs

// JobBoard is the live board of the experiment scheduler's jobs: every
// replay cell and trace generation the scheduler fans out is enqueued here,
// moved to running when a worker picks it up, and finished with its outcome.
// The live server's /jobs endpoint serializes the board, turning a
// multi-hour sweep from a black box into a watchable queue.
//
// Finished-job retention is bounded: once more than the retention cap of
// jobs have finished, the oldest finished entries are evicted from the
// detailed list (their outcomes stay counted in the Done/Failed summary
// counters), so a long-lived -serve process holds at most the
// cap plus the live jobs no matter how many sweeps it has run. Queued and
// running jobs are never evicted.
//
// A nil *JobBoard is a no-op (Enqueue returns an invalid id that the other
// methods ignore), so the scheduler publishes unconditionally.

import (
	"sort"
	"sync"
	"time"
)

// Job states, as reported by JobStatus.State.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
	// JobCached marks a job satisfied from the result cache without being
	// computed. It is terminal like JobDone but reported separately, so a
	// warm sweep's near-zero cell durations don't skew lane throughput or
	// ETA estimates derived from genuinely computed cells.
	JobCached = "cached"
)

// DefaultBoardRetention is how many finished jobs a board keeps in detail
// before evicting the oldest into the summary counters.
const DefaultBoardRetention = 4096

type boardJob struct {
	label    string
	state    string
	queued   time.Time
	started  time.Time
	finished time.Time
	err      string
}

// JobBoard tracks the lifecycle of scheduler jobs. Safe for concurrent use.
type JobBoard struct {
	mu     sync.Mutex
	retain int
	nextID int
	jobs   map[int]*boardJob

	// finished[finHead:] lists finished job ids oldest-first — the eviction
	// queue. The head index avoids an O(retain) slide per eviction; the
	// backing array is compacted once the dead prefix outgrows the cap.
	finished []int
	finHead  int

	evictedDone   int
	evictedFailed int
	evictedCached int
}

// NewJobBoard creates an empty board with the default finished-job
// retention.
func NewJobBoard() *JobBoard {
	return &JobBoard{retain: DefaultBoardRetention, jobs: make(map[int]*boardJob)}
}

// SetRetention bounds how many finished jobs the board keeps in detail
// (minimum 1). It evicts immediately if the board already holds more.
func (b *JobBoard) SetRetention(n int) {
	if b == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retain = n
	b.evictLocked()
}

// Enqueue registers a job in the queued state and returns its id. On a nil
// board it returns -1, which Start and Finish ignore.
func (b *JobBoard) Enqueue(label string) int {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.nextID
	b.nextID++
	b.jobs[id] = &boardJob{label: label, state: JobQueued, queued: time.Now()}
	return id
}

// Start marks the job as running. Safe on a nil board and an invalid id.
func (b *JobBoard) Start(id int) {
	if b == nil || id < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if j, ok := b.jobs[id]; ok && j.state == JobQueued {
		j.state = JobRunning
		j.started = time.Now()
	}
}

// Finish marks the job as done, or failed when err is non-nil. Safe on a nil
// board and an invalid id.
func (b *JobBoard) Finish(id int, err error) {
	if b == nil || id < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	j, ok := b.jobs[id]
	if !ok || j.state == JobDone || j.state == JobFailed || j.state == JobCached {
		return
	}
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
	} else {
		j.state = JobDone
	}
	b.finished = append(b.finished, id)
	b.evictLocked()
}

// FinishCached marks the job as satisfied from the result cache. Safe on a
// nil board and an invalid id.
func (b *JobBoard) FinishCached(id int) {
	if b == nil || id < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	j, ok := b.jobs[id]
	if !ok || j.state == JobDone || j.state == JobFailed || j.state == JobCached {
		return
	}
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.state = JobCached
	b.finished = append(b.finished, id)
	b.evictLocked()
}

// evictLocked drops the oldest finished jobs past the retention cap,
// folding their outcomes into the summary counters. Caller holds b.mu.
func (b *JobBoard) evictLocked() {
	for len(b.finished)-b.finHead > b.retain {
		id := b.finished[b.finHead]
		b.finHead++
		if j, ok := b.jobs[id]; ok {
			switch j.state {
			case JobFailed:
				b.evictedFailed++
			case JobCached:
				b.evictedCached++
			default:
				b.evictedDone++
			}
			delete(b.jobs, id)
		}
	}
	if b.finHead > b.retain && b.finHead*2 > len(b.finished) {
		b.finished = append(b.finished[:0], b.finished[b.finHead:]...)
		b.finHead = 0
	}
}

// JobStatus is one job's externally visible state.
type JobStatus struct {
	ID          int     `json:"id"`
	Label       string  `json:"label"`
	State       string  `json:"state"`
	WallSeconds float64 `json:"wall_seconds"` // run time so far (running) or total (finished)
	Err         string  `json:"error,omitempty"`
}

// BoardStatus is a point-in-time view of the whole board, served as JSON by
// the live server's /jobs endpoint. Done and Failed count every job ever
// finished, including those evicted from the detailed Jobs list; Evicted
// says how many of them the list no longer shows.
type BoardStatus struct {
	Queued  int         `json:"queued"`
	Running int         `json:"running"`
	Done    int         `json:"done"`
	Failed  int         `json:"failed"`
	Cached  int         `json:"cached,omitempty"`
	Evicted int         `json:"evicted,omitempty"`
	Jobs    []JobStatus `json:"jobs"`
}

// Status snapshots every retained job on the board in enqueue order. Safe on
// a nil board (returns an empty status).
func (b *JobBoard) Status() BoardStatus {
	st := BoardStatus{Jobs: []JobStatus{}}
	if b == nil {
		return st
	}
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	st.Done = b.evictedDone
	st.Failed = b.evictedFailed
	st.Cached = b.evictedCached
	st.Evicted = b.evictedDone + b.evictedFailed + b.evictedCached
	ids := make([]int, 0, len(b.jobs))
	for id := range b.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		j := b.jobs[id]
		js := JobStatus{ID: id, Label: j.label, State: j.state, Err: j.err}
		switch j.state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
			js.WallSeconds = now.Sub(j.started).Seconds()
		case JobDone:
			st.Done++
			js.WallSeconds = j.finished.Sub(j.started).Seconds()
		case JobFailed:
			st.Failed++
			js.WallSeconds = j.finished.Sub(j.started).Seconds()
		case JobCached:
			st.Cached++
			js.WallSeconds = j.finished.Sub(j.started).Seconds()
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st
}
