package dist

// The coordinator: generates traces locally (the same single-flight
// Experiment cache a local sweep uses), publishes them to the
// content-addressed trace cache, feeds cells through the lease queue, and
// merges worker results by cell index into the same []AppColumns a local
// run produces. Everything HTTP-facing sits behind the admission gate
// except results — rejecting completed work only to recompute it would be
// self-inflicted load.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"dynsched/internal/cache"
	"dynsched/internal/cpu"
	"dynsched/internal/exp"
	"dynsched/internal/faultinject"
	"dynsched/internal/obs"
)

// Defaults for Config's zero values.
const (
	DefaultLease     = 10 * time.Second
	DefaultQueueMax  = 1024
	DefaultMaxActive = 64
)

// Config parameterizes a Coordinator.
type Config struct {
	// Lease is how long a claimed cell stays assigned without a heartbeat
	// before it is reclaimed. Zero means DefaultLease.
	Lease time.Duration
	// Retries is the per-cell retry budget (attempts = Retries+1), matching
	// exp.Options.Retries semantics.
	Retries int
	// RetryBackoff / RetryMaxBackoff shape the requeue delay after a failed
	// attempt; zero values take exp's defaults.
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// QueueMax bounds the admission queue; past it requests get 429. Zero
	// means DefaultQueueMax.
	QueueMax int
	// MaxActive bounds concurrently served requests. Zero means
	// DefaultMaxActive.
	MaxActive int
	// Board, when set, mirrors every cell onto the observability job board.
	Board *obs.JobBoard
	// Cache, when set, is the persistent result cache: cells whose result
	// is already cached are served without ever entering a worker's claim,
	// and worker-computed results are admitted into the cache — but only
	// after the resultCheck checksum (the 409-recompute path) accepted
	// them, so a corrupted report can no more poison the cache than the
	// merge.
	Cache *cache.Store
	// Faults is the test-only injector; the coordinator carries the
	// "dist.trace.serve" site (corrupt a trace transfer).
	Faults *faultinject.Injector
	// Now overrides the clock for tests.
	Now func() time.Time
}

// Coordinator owns one distributed sweep: the trace cache, the lease
// queue, and the HTTP surface workers talk to.
type Coordinator struct {
	cfg  Config
	q    *queue
	gate *gate

	mu     sync.Mutex
	traces map[string][]byte // content address → serialized v3 trace
}

// New creates a coordinator with cfg's zero values defaulted.
func New(cfg Config) *Coordinator {
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	if cfg.QueueMax <= 0 {
		cfg.QueueMax = DefaultQueueMax
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = DefaultMaxActive
	}
	if cfg.Board == nil {
		cfg.Board = obs.NewJobBoard()
	}
	co := &Coordinator{
		cfg:    cfg,
		q:      newQueue(cfg.Lease, cfg.Retries, cfg.RetryBackoff, cfg.RetryMaxBackoff, cfg.Board, cfg.Now),
		gate:   newGate(cfg.MaxActive, cfg.QueueMax),
		traces: make(map[string][]byte),
	}
	if cfg.Cache != nil {
		// Checksum-verified worker results feed the persistent cache, so the
		// next sweep over the same traces starts warm.
		co.q.onDone = func(traceFNV string, spec exp.CellSpec, b cpu.Breakdown, instructions uint64) {
			exp.CellCachePut(cfg.Cache, traceFNV, spec, b, instructions)
		}
	}
	return co
}

// AddTrace publishes a serialized trace to the content-addressed cache and
// returns its address.
func (co *Coordinator) AddTrace(data []byte) string {
	addr := traceAddr(data)
	co.mu.Lock()
	co.traces[addr] = data
	co.mu.Unlock()
	return addr
}

// Handler returns the coordinator's HTTP surface.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(pathClaim, co.admitted(co.handleClaim))
	mux.HandleFunc(pathHeartbeat, co.admitted(co.handleHeartbeat))
	mux.HandleFunc(pathTraces, co.admitted(co.handleTrace))
	// Results bypass admission: never turn away finished work.
	mux.HandleFunc(pathResult, co.handleResult)
	mux.HandleFunc(pathState, co.handleState)
	return mux
}

// admitted wraps h with the fair admission gate, keyed by worker id (falling
// back to the peer host), answering 429 + Retry-After past the high-water
// mark.
func (co *Coordinator) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		client := r.Header.Get(workerHeader)
		if client == "" {
			if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
				client = host
			} else {
				client = r.RemoteAddr
			}
		}
		if err := co.gate.acquire(r.Context(), client); err != nil {
			if errors.Is(err, errSaturated) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "coordinator saturated", http.StatusTooManyRequests)
				return
			}
			// Canceled while queued; the client is gone.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer co.gate.release()
		h(w, r)
	}
}

func (co *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !decodePost(w, r, &req) {
		return
	}
	job, resp := co.q.claim(req.Worker)
	if job != nil {
		resp = &claimResponse{Job: job}
	}
	writeJSON(w, resp)
}

func (co *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !decodePost(w, r, &req) {
		return
	}
	found, ok := co.q.result(req)
	if !found {
		http.Error(w, "unknown job id", http.StatusNotFound)
		return
	}
	if !ok {
		http.Error(w, "result checksum mismatch", http.StatusConflict)
		return
	}
	writeJSON(w, okResponse{OK: true})
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodePost(w, r, &req) {
		return
	}
	co.q.heartbeat(req.Worker, req.IDs)
	writeJSON(w, okResponse{OK: true})
}

func (co *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	addr := strings.TrimPrefix(r.URL.Path, pathTraces)
	co.mu.Lock()
	data := co.traces[addr]
	co.mu.Unlock()
	if data == nil {
		http.Error(w, "unknown trace", http.StatusNotFound)
		return
	}
	if err := co.cfg.Faults.Fire("dist.trace.serve"); err != nil {
		// Simulated transfer corruption: serve a copy with one bit flipped.
		// The worker's checksum verification must catch it and re-fetch.
		bad := append([]byte(nil), data...)
		faultinject.CorruptByte("dist.trace.serve", bad)
		data = bad
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (co *Coordinator) handleState(w http.ResponseWriter, r *http.Request) {
	queued, leased, done, failed, expected := co.q.counts()
	active, waiting := co.gate.status()
	writeJSON(w, map[string]int{
		"queued": queued, "leased": leased, "done": done, "failed": failed,
		"expected": expected, "admitted": active, "admission_queued": waiting,
	})
}

func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Server is a running coordinator endpoint.
type Server struct {
	Addr string
	srv  *http.Server
}

// StartServer serves co on addr (host:port, port 0 for ephemeral) in the
// background.
func StartServer(addr string, co *Coordinator) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: co.Handler()}
	go srv.Serve(ln)
	return &Server{Addr: ln.Addr().String(), srv: srv}, nil
}

// Shutdown stops the server gracefully.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }

// RunSweep drives one distributed sweep to completion: generate every
// application's trace locally (bounded by the experiment's worker count),
// publish each to the trace cache, enqueue its cells, wait for remote
// workers to resolve them, and merge by cell index. The merged columns are
// byte-identical to the in-process scheduler's at any worker count and
// under any failure schedule; an application whose generation fails, and
// any cell that exhausts its retry budget, degrade to FAILED columns plus
// a *exp.PartialError, exactly like a local run.
func RunSweep(ctx context.Context, e *exp.Experiment, specs []exp.CellSpec, co *Coordinator) ([]exp.AppColumns, error) {
	apps := e.Apps()
	nc := len(specs)
	if nc == 0 {
		return nil, errors.New("dist: no cells to sweep")
	}
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	if err := co.q.start(len(apps) * nc); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Generate and enqueue, bounded like the local sweep's generation stage.
	genWorkers := e.Options().Workers
	if genWorkers < 1 {
		genWorkers = 1
	}
	genErrs := make([]error, len(apps))
	sem := make(chan struct{}, genWorkers)
	var wg sync.WaitGroup
	for a, app := range apps {
		wg.Add(1)
		go func(a int, app string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			run, err := e.Run(app)
			var buf bytes.Buffer
			if err == nil {
				if _, werr := run.TraceView().WriteTo(&buf); werr != nil {
					err = fmt.Errorf("serialize trace: %w", werr)
				}
			}
			if err != nil {
				// The merge records one failure for the whole app; its
				// cells never enter the queue.
				genErrs[a] = err
				co.q.discount(nc)
				return
			}
			addr := co.AddTrace(buf.Bytes())
			co.q.addApp(a, app, specs, addr)
			// Serve cached cell results immediately: the cells resolve
			// before any worker claims them, and the board reports them as
			// cached. Misses stay queued for the workers.
			for c, spec := range specs {
				if b, instructions, ok := exp.CellCacheGet(co.cfg.Cache, addr, spec); ok {
					co.q.satisfy(a*nc+c, b, instructions)
				}
			}
		}(a, app)
	}
	wg.Wait()

	if err := co.q.wait(ctx); err != nil {
		return nil, fmt.Errorf("dist: sweep canceled: %w", err)
	}
	// Merge by cell index through the in-process driver's merge.
	return exp.MergeCells(apps, specs, genErrs, func(a, c int) (cpu.Breakdown, uint64, *exp.CellError) {
		return co.q.outcome(a*nc + c)
	})
}
