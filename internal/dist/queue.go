package dist

// The coordinator's lease-based cell queue. Cells enter as their
// application's trace finishes generating, workers claim them FIFO, and a
// claim is a lease, not a handoff: if the worker stops heartbeating the
// lease expires and the cell goes back in the queue. Every lease counts as
// one attempt against the same retry budget exp's in-process scheduler
// uses, requeues back off with exp.RetryDelay's capped deterministic
// jitter, and a cell that exhausts its budget (or fails permanently)
// resolves to a *exp.CellError — the sweep keeps going and degrades to a
// *exp.PartialError, exactly like a local run. Scheduling order, worker
// deaths, and duplicate results never reach the output: results key by
// cell index, and a replay is a pure function of (trace, spec), so any
// worker's answer for a cell is the answer.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dynsched/internal/cpu"
	"dynsched/internal/exp"
	"dynsched/internal/obs"
)

type jobState uint8

const (
	stateQueued jobState = iota
	stateLeased
	stateDone
	stateFailed
)

type qjob struct {
	id       int // cell index (app*cells + cell): the merge key
	app      string
	label    string // "app spec.Label", matching the local scheduler's site labels
	spec     exp.CellSpec
	traceFNV string

	state     jobState
	attempts  int // leases granted so far
	worker    string
	expiry    time.Time // lease deadline while leased
	notBefore time.Time // backoff gate while queued
	boardID   int

	breakdown    cpu.Breakdown
	instructions uint64
	cerr         *exp.CellError
}

type queue struct {
	mu   sync.Mutex
	jobs map[int]*qjob
	// fifo holds queued job ids in arrival order; entries whose job is no
	// longer queued are skipped and dropped during claims.
	fifo []int

	expected int // cells the sweep must resolve (apps × cells)
	resolved int // done + failed
	skipped  int // cells discounted because their app's generation failed

	lease      time.Duration
	retries    int
	backoff    time.Duration
	maxBackoff time.Duration
	board      *obs.JobBoard
	now        func() time.Time

	// onDone, when set, observes every checksum-verified worker result
	// (the coordinator admits them into the persistent result cache). It is
	// called outside the queue lock.
	onDone func(traceFNV string, spec exp.CellSpec, b cpu.Breakdown, instructions uint64)
}

func newQueue(lease time.Duration, retries int, backoff, maxBackoff time.Duration, board *obs.JobBoard, now func() time.Time) *queue {
	if lease <= 0 {
		lease = DefaultLease
	}
	if now == nil {
		now = time.Now
	}
	return &queue{
		jobs: make(map[int]*qjob), lease: lease, retries: retries,
		backoff: backoff, maxBackoff: maxBackoff, board: board, now: now,
	}
}

// start arms the queue for one sweep of total cells. The queue is
// single-sweep: a second start is a programming error.
func (q *queue) start(total int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.expected != 0 {
		return errors.New("dist: coordinator already ran a sweep")
	}
	q.expected = total
	return nil
}

// addApp enqueues one application's cells, keyed a*len(specs)+c — the
// index layout exp.MergeCells merges by.
func (q *queue) addApp(a int, app string, specs []exp.CellSpec, traceFNV string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for c, spec := range specs {
		id := a*len(specs) + c
		label := app + " " + spec.Label
		q.jobs[id] = &qjob{
			id: id, app: app, label: label, spec: spec, traceFNV: traceFNV,
			state: stateQueued, boardID: q.board.Enqueue(label),
		}
		q.fifo = append(q.fifo, id)
	}
}

// discount removes n never-created cells from the expectation — the cells
// of an application whose trace generation failed; the sweep driver marks
// them failed itself, outside the queue.
func (q *queue) discount(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.skipped += n
}

// claim leases the oldest ready cell to worker. With nothing ready it
// reports done (sweep complete) or wait with a retry hint.
func (q *queue) claim(worker string) (*jobAssignment, *claimResponse) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	q.reclaimLocked(now)

	var earliest time.Time
	keep := q.fifo[:0]
	var picked *qjob
	for i, id := range q.fifo {
		j := q.jobs[id]
		if j == nil || j.state != stateQueued {
			continue // stale entry: the job was leased or resolved already
		}
		if picked == nil && !j.notBefore.After(now) {
			picked = j
			continue // claimed: drop from the fifo
		}
		if earliest.IsZero() || j.notBefore.Before(earliest) {
			earliest = j.notBefore
		}
		keep = append(keep, id)
		_ = i
	}
	q.fifo = keep

	if picked != nil {
		picked.state = stateLeased
		picked.attempts++
		picked.worker = worker
		picked.expiry = now.Add(q.lease)
		q.board.Start(picked.boardID)
		return &jobAssignment{
			ID: picked.id, App: picked.app, Label: picked.label, Spec: picked.spec,
			TraceFNV: picked.traceFNV, Attempt: picked.attempts,
			LeaseMillis: q.lease.Milliseconds(),
		}, nil
	}
	if q.completeLocked() {
		return nil, &claimResponse{Done: true}
	}
	// Nothing claimable yet: cells are leased out, backing off, or their
	// traces are still generating. Hint when to come back.
	retry := q.lease / 4
	if !earliest.IsZero() {
		if d := earliest.Sub(now); d < retry {
			retry = d
		}
	}
	if retry < 20*time.Millisecond {
		retry = 20 * time.Millisecond
	}
	return nil, &claimResponse{Wait: true, RetryAfterMillis: retry.Milliseconds()}
}

// result lands one cell outcome. Duplicate or stale reports for an already
// resolved cell are acknowledged and discarded — deterministic replay makes
// them identical, so there is nothing to reconcile. ok=false rejects a
// checksum mismatch (the worker re-sends); found=false is an unknown id.
func (q *queue) result(r resultRequest) (found, ok bool) {
	q.mu.Lock()
	var landed *qjob
	j := q.jobs[r.ID]
	if j == nil {
		q.mu.Unlock()
		return false, false
	}
	switch {
	case j.state == stateDone || j.state == stateFailed:
		// resolved already: acknowledge and discard
	case r.Error == "":
		if resultCheck(r.ID, r.Breakdown, r.Instructions) != r.Check {
			q.mu.Unlock()
			return true, false
		}
		j.state = stateDone
		j.breakdown = r.Breakdown
		j.instructions = r.Instructions
		j.worker = r.Worker
		q.resolved++
		q.board.Finish(j.boardID, nil)
		landed = j
	default:
		q.failAttemptLocked(j, q.now(), errors.New(r.Error), r.Permanent)
	}
	q.mu.Unlock()
	if landed != nil && q.onDone != nil {
		// Only checksum-verified results reach here — the cache admits
		// nothing the merge would not.
		q.onDone(landed.traceFNV, landed.spec, r.Breakdown, r.Instructions)
	}
	return true, true
}

// satisfy resolves a still-queued cell from the result cache: it never
// reaches a worker and the board reports it as cached. Cells already leased
// or resolved are left alone (the in-flight replay will land the identical
// numbers). The stale fifo entry is dropped lazily by claim.
func (q *queue) satisfy(id int, b cpu.Breakdown, instructions uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil || j.state != stateQueued {
		return
	}
	j.state = stateDone
	j.breakdown = b
	j.instructions = instructions
	j.worker = "cache"
	q.resolved++
	q.board.FinishCached(j.boardID)
}

// heartbeat renews worker's leases; ids the worker no longer owns (expired
// and reassigned) are ignored, which is how a resurrected worker learns
// nothing it does matters anymore.
func (q *queue) heartbeat(worker string, ids []int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	for _, id := range ids {
		if j := q.jobs[id]; j != nil && j.state == stateLeased && j.worker == worker {
			j.expiry = now.Add(q.lease)
		}
	}
}

// reclaimLocked expires dead leases: each one is a failed attempt (the
// worker was SIGKILLed, wedged, or partitioned mid-replay), retried with
// backoff under the usual budget. Caller holds q.mu.
func (q *queue) reclaimLocked(now time.Time) {
	for _, j := range q.jobs {
		if j.state == stateLeased && !j.expiry.After(now) {
			q.failAttemptLocked(j, now,
				fmt.Errorf("dist: worker %q lost its lease", j.worker), false)
		}
	}
}

// failAttemptLocked charges one failed attempt against j: requeue with
// jittered backoff while budget remains, otherwise resolve to a *CellError.
// Caller holds q.mu.
func (q *queue) failAttemptLocked(j *qjob, now time.Time, err error, permanent bool) {
	if permanent || j.attempts > q.retries {
		j.state = stateFailed
		j.cerr = &exp.CellError{Label: j.label, Index: j.id, Attempts: j.attempts, Err: err}
		q.resolved++
		q.board.Finish(j.boardID, j.cerr)
		return
	}
	j.state = stateQueued
	j.worker = ""
	j.notBefore = now.Add(exp.RetryDelay(j.label, j.attempts, q.backoff, q.maxBackoff))
	q.fifo = append(q.fifo, j.id)
}

func (q *queue) completeLocked() bool {
	return q.expected > 0 && q.resolved+q.skipped == q.expected
}

// wait blocks until every cell resolves or ctx cancels, reclaiming expired
// leases as it polls (a sweep whose workers all died must still fail its
// cells and finish).
func (q *queue) wait(ctx interface{ Done() <-chan struct{} }) error {
	poll := q.lease / 4
	if poll > 100*time.Millisecond {
		poll = 100 * time.Millisecond
	}
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	for {
		q.mu.Lock()
		q.reclaimLocked(q.now())
		done := q.completeLocked()
		q.mu.Unlock()
		if done {
			return nil
		}
		if ctx != nil {
			select {
			case <-ctx.Done():
				return ctx.(interface{ Err() error }).Err()
			case <-time.After(poll):
			}
		} else {
			time.Sleep(poll)
		}
	}
}

// outcome returns cell id's resolution for the merge.
func (q *queue) outcome(id int) (b cpu.Breakdown, instructions uint64, cerr *exp.CellError) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil {
		return cpu.Breakdown{}, 0, &exp.CellError{
			Label: fmt.Sprintf("cell %d", id), Index: id, Attempts: 0,
			Err: errors.New("dist: cell never entered the queue"),
		}
	}
	return j.breakdown, j.instructions, j.cerr
}

// counts summarizes the queue for /state.
func (q *queue) counts() (queued, leased, done, failed, expected int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		switch j.state {
		case stateQueued:
			queued++
		case stateLeased:
			leased++
		case stateDone:
			done++
		case stateFailed:
			failed++
		}
	}
	return queued, leased, done, failed, q.expected
}
