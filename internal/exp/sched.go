package exp

// The parallel experiment scheduler. The paper's evaluation is one large
// embarrassingly-parallel matrix — applications × processor models ×
// consistency models × window sizes — and every cell of it is an
// independent replay of a shared immutable trace, the same fan-out the
// paper's own methodology uses (one Tango trace, many uniprocessor
// replays). runMatrix is the one driver every sweep goes through: the
// figures and window sweeps, the ablations, the analyze and timeline probes
// and the §7 summary all hand it a list of CellSpecs, and mergeCells
// assembles the results by cell index. runJobs is the bounded worker pool
// of the remaining per-application fan-outs. Results are always stored by
// input index, so every table, figure, and golden artifact is
// byte-identical regardless of the worker count — including failure
// output: errors are selected by index, never by completion time.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// runJobs executes fn(0..n-1) on at most workers goroutines (0 or negative
// selects runtime.GOMAXPROCS(0)). Each job writes its result into a caller-
// owned slot keyed by its index, which is what makes the output order
// deterministic: scheduling decides only when a job runs, never where its
// result lands. On failure the error at the lowest failing index is
// returned — not the first by completion time — so the failure is the one
// serial execution would have hit and the output is byte-identical at any
// worker count. Workers stop claiming jobs above the lowest known failure;
// every job below it still runs to completion.
func runJobs(n, workers int, fn func(int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		minFail atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		errs    = make(map[int]error)
	)
	minFail.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				// The claim counter is monotonic, so once a claim lands at or
				// above the lowest failure every smaller index has already
				// been claimed (and, if below the failure, will run).
				if i >= n || int64(i) >= minFail.Load() {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					for {
						cur := minFail.Load()
						if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if m := minFail.Load(); m < int64(n) {
		return errs[int(m)]
	}
	return nil
}

// cellSite is a cell's sweep-unique label, naming its fault-injection site
// ("cell.<site>"), board job and failure: "mp3d RC-DS64", with the probe's
// name between application and cell ("mp3d analyze RC-DS64"). A sweep over
// a supplied trace has no application name and uses the bare cell label.
func cellSite(app string, p probe, label string) string {
	switch {
	case app == "":
		return label
	case p == critPathProbe:
		return app + " analyze " + label
	case p == timelineProbe:
		return app + " timeline " + label
	}
	return app + " " + label
}

// runMatrix is the harness's one sweep driver: it replays the full apps ×
// specs matrix through probe and returns the merged columns plus each
// cell's outcome (the probe's instruments), both indexed [app][cell].
// Trace generation and replay are pipelined through one worker pool: every
// application's generation (gen) is enqueued up front, and the moment a
// generation completes its replay cells become claimable, so workers
// replay finished traces while other applications are still generating.
// Every cell runs under the full containment stack — fault-injection site,
// panic isolation, retry — with fresh instruments per attempt; unprobed
// cells go through the result cache, where a hit skips the replay but
// lands in the same by-index slot. Results and failures are keyed by cell
// index, so the output is byte-identical at any worker count. A failed
// generation marks its application's cells failed and a failed cell is
// marked without disturbing its neighbours; the partial results come back
// alongside a *PartialError. Only cancellation aborts outright.
func runMatrix(o *Options, apps []string, gen func(app string) (*AppRun, error), specs []CellSpec, p probe) ([]AppColumns, [][]cellOutcome, error) {
	nc := len(specs)
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := len(apps) * (nc + 1); workers > max {
		workers = max
	}

	runs := make([]*AppRun, len(apps))
	genErrs := make([]error, len(apps))
	outs := make([][]cellOutcome, len(apps))
	cellErrs := make([][]*CellError, len(apps))
	for a := range apps {
		outs[a] = make([]cellOutcome, nc)
		cellErrs[a] = make([]*CellError, nc)
	}

	// replayCell resolves cell c of application a: from the cache, or by
	// replaying it under attempt. A cache hit selected for verification is
	// recomputed too; a divergence is a terminal cell failure (the cache or
	// the simulator is lying, and silently preferring either answer would
	// poison the run).
	replayCell := func(a, c int) {
		spec, addr := specs[c], runs[a].addr
		site := cellSite(apps[a], p, spec.Label)
		bj := o.Board.Enqueue(site)
		var cached *cellResult
		if p == noProbe {
			if b, n, ok := CellCacheGet(o.Cache, addr, spec); ok {
				cached = &cellResult{Breakdown: b, Instructions: n}
				if !verifySelected(o.CacheVerify, cellKey(addr, spec)) {
					outs[a][c].cellResult = *cached
					o.Board.FinishCached(bj)
					return
				}
			}
		}
		if cached == nil {
			o.Board.Start(bj)
		}
		tr := runs[a].TraceView()
		cerr := o.attempt(site, a*nc+c, func() error {
			if err := o.Faults.Fire("cell." + site); err != nil {
				return err
			}
			out, err := spec.replay(tr, o, p, apps[a]+" "+spec.Label)
			if err != nil {
				return err
			}
			outs[a][c] = out
			return nil
		})
		if cerr == nil && cached != nil {
			fresh := outs[a][c].cellResult
			o.Cache.CountVerified(fresh == *cached)
			if fresh != *cached {
				cerr = &CellError{
					Label: site, Index: a*nc + c, Attempts: 1,
					Err: &permanentError{fmt.Errorf(
						"exp: cache verification divergence: cached breakdown %+v (instructions %d) vs recomputed %+v (instructions %d)",
						cached.Breakdown, cached.Instructions, fresh.Breakdown, fresh.Instructions)},
				}
			}
		}
		switch {
		case cerr != nil:
			cellErrs[a][c] = cerr
			o.Board.Finish(bj, cerr)
		case cached != nil:
			o.Board.FinishCached(bj)
		default:
			if p == noProbe {
				CellCachePut(o.Cache, addr, spec, outs[a][c].Breakdown, outs[a][c].Instructions)
			}
			o.Board.Finish(bj, nil)
		}
	}

	// The job stream: c == -1 generates app a's trace; c >= 0 replays one
	// cell over it. The channel is buffered for every job that can ever
	// exist, so workers (which enqueue an app's cells after generating its
	// trace) never block on the send. pending counts enqueued-but-unfinished
	// jobs; a generation adds its cells before retiring itself, so the count
	// can only reach zero when the whole matrix is done.
	type job struct{ a, c int }
	jobs := make(chan job, len(apps)*(nc+1))
	var (
		pending atomic.Int64
		wg      sync.WaitGroup
	)
	pending.Store(int64(len(apps)))
	done := func() {
		if pending.Add(-1) == 0 {
			close(jobs)
		}
	}
	for a := range apps {
		jobs <- job{a, -1}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				switch err := ctxDone(o.Ctx); {
				case err != nil:
					if j.c < 0 {
						genErrs[j.a] = err
					}
				case j.c >= 0:
					replayCell(j.a, j.c)
				default:
					runs[j.a], genErrs[j.a] = gen(apps[j.a])
					if genErrs[j.a] == nil {
						pending.Add(int64(nc))
						for c := 0; c < nc; c++ {
							jobs <- job{j.a, c}
						}
					}
				}
				done()
			}
		}()
	}
	wg.Wait()
	if err := ctxDone(o.Ctx); err != nil {
		return nil, nil, fmt.Errorf("exp: sweep canceled: %w", err)
	}
	acs, err := mergeCells(apps, specs, genErrs, outs, cellErrs)
	return acs, outs, err
}

// mergeCells assembles a finished apps × specs matrix by cell index
// (application a's cell c is index a*len(specs)+c). gen[a] is application
// a's trace-generation failure, which fails all its cells as one entry;
// outs[a][c] holds one cell's replayed numbers and cellErrs[a][c] its
// terminal failure. Failed slots keep their configuration identity with
// zero numbers, each application's columns are normalized against its BASE
// column, and the failures return, ordered by index, as a *PartialError
// alongside the columns.
func mergeCells(apps []string, specs []CellSpec, gen []error, outs [][]cellOutcome, cellErrs [][]*CellError) ([]AppColumns, error) {
	nc := len(specs)
	out := make([]AppColumns, len(apps))
	var failed []*CellError
	for a, app := range apps {
		var genCE *CellError
		if gen[a] != nil {
			genCE = &CellError{Label: app + " (trace generation)", Index: a * nc, Attempts: 1, Err: gen[a]}
			failed = append(failed, genCE)
		}
		cols := make([]Column, nc)
		for c, spec := range specs {
			cols[c] = spec.column()
			ce := genCE
			if ce == nil {
				if ce = cellErrs[a][c]; ce == nil {
					cols[c].Breakdown, cols[c].Instructions = outs[a][c].Breakdown, outs[a][c].Instructions
					continue
				}
				failed = append(failed, ce)
			}
			cols[c].Failed, cols[c].Err = true, ce
		}
		normalize(cols)
		out[a] = AppColumns{App: app, Cols: cols}
	}
	if failed != nil {
		// The loop emits failures in index order already; keep the sort as a
		// guard so the report is stable at any worker count.
		sort.Slice(failed, func(i, j int) bool { return failed[i].Index < failed[j].Index })
		return out, &PartialError{Total: len(apps) * nc, Cells: failed}
	}
	return out, nil
}

// perAppJobs runs fn once per configured application with its generated
// trace, bounded by Options.Workers. Generation is folded into each app's
// job rather than batched up front, so fn starts on the first finished
// trace while later applications are still generating. fn must write its
// result into a slot keyed by the app index.
func (e *Experiment) perAppJobs(fn func(i int, run *AppRun) error) error {
	apps := e.Apps()
	jobs := make([]int, len(apps))
	for i, app := range apps {
		jobs[i] = e.opts.Board.Enqueue(app)
	}
	return runJobs(len(apps), e.opts.Workers, func(i int) error {
		run, err := e.Run(apps[i])
		if err != nil {
			return err
		}
		e.opts.Board.Start(jobs[i])
		err = fn(i, run)
		e.opts.Board.Finish(jobs[i], err)
		return err
	})
}
