package obs

// The live run server: an opt-in, stdlib-only HTTP server that makes a
// running sweep observable while it executes. It exposes
//
//	/            a plain-text index of the endpoints
//	/metrics     the registry snapshot in Prometheus text exposition format
//	/metrics.json  the registry snapshot as JSON (same shape as -metrics-out)
//	/bottlenecks the critical-path attribution decoded from the registry
//	/timeline    every registered cell's interval time series (TimelineHub)
//	/events      live timeline samples as a Server-Sent Events stream
//	/jobs        the experiment scheduler's per-job state (JobBoard.Status)
//	/progress    the Progress ticker's throughput and ETA (Progress.Status)
//	/healthz     liveness: version, uptime, goroutine count
//	/debug/pprof/* the standard net/http/pprof handlers
//
// Every data source is optional and nil-safe: a nil Registry serves an
// empty snapshot, a nil JobBoard an empty board, a nil Progress a zeroed
// status, a nil TimelineHub an empty series list and an immediately-closed
// event stream — so the command-line front ends wire up whatever the run
// has. All data endpoints are read-only: non-GET methods get 405, and
// responses carry Cache-Control: no-cache since every scrape is a live
// snapshot.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// ServerState bundles the live data sources the server renders.
type ServerState struct {
	Registry  *Registry
	Board     *JobBoard
	Progress  *Progress
	Timelines *TimelineHub
	Version   string // reported by /healthz
}

// readOnly wraps a handler to reject non-GET/HEAD methods with 405. The
// data endpoints are pure snapshots; only the pprof tree (whose symbol
// handler legitimately accepts POST) is left unwrapped.
func readOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// NewServeMux builds the live server's handler tree over st.
func NewServeMux(st ServerState) *http.ServeMux {
	start := time.Now()
	mux := http.NewServeMux()

	mux.HandleFunc("/", readOnly(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-cache")
		fmt.Fprintf(w, "dynsched live run server (version %s)\n\n", st.Version)
		fmt.Fprint(w, "endpoints:\n"+
			"  /metrics        Prometheus text exposition of the metrics registry\n"+
			"  /metrics.json   JSON metrics snapshot (same shape as -metrics-out)\n"+
			"  /bottlenecks    critical-path attribution by app and configuration\n"+
			"  /timeline       interval time series of every registered cell\n"+
			"  /events         live timeline samples (Server-Sent Events)\n"+
			"  /jobs           experiment scheduler job board\n"+
			"  /progress       throughput and ETA of the running simulations\n"+
			"  /healthz        liveness and uptime\n"+
			"  /debug/pprof/   runtime profiles\n")
	}))

	mux.HandleFunc("/metrics", readOnly(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-cache")
		if err := WritePrometheus(w, st.Registry.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}))

	mux.HandleFunc("/metrics.json", readOnly(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-cache")
		if err := st.Registry.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}))

	mux.HandleFunc("/bottlenecks", readOnly(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, Bottlenecks(st.Registry.Snapshot()))
	}))

	mux.HandleFunc("/timeline", readOnly(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, st.Timelines.Snapshot())
	}))

	mux.HandleFunc("/events", readOnly(func(w http.ResponseWriter, r *http.Request) {
		serveSSE(w, r, st.Timelines)
	}))

	mux.HandleFunc("/jobs", readOnly(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, st.Board.Status())
	}))

	mux.HandleFunc("/progress", readOnly(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, st.Progress.Status())
	}))

	mux.HandleFunc("/healthz", readOnly(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, map[string]any{
			"status":         "ok",
			"version":        st.Version,
			"uptime_seconds": time.Since(start).Seconds(),
			"goroutines":     runtime.NumGoroutine(),
		})
	}))

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-cache")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveSSE streams live timeline samples as Server-Sent Events: one
// `event: sample` frame per recorded interval, with the hub's monotone
// sequence number as the event id. The stream ends when the client goes
// away or the hub closes (run finished / server shutting down); buffered
// events drain in order first, so a client sees a well-formed, ordered
// stream through shutdown.
func serveSSE(w http.ResponseWriter, r *http.Request, hub *TimelineHub) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the headers go out: a client that has its response
	// must see every event published after that.
	ch, cancel := hub.Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: sample\ndata: %s\n\n", ev.Seq, data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// Server is a running live server; Close shuts it down.
type Server struct {
	// Addr is the actual listen address (useful with ":0").
	Addr string

	srv *http.Server
	hub *TimelineHub
}

// StartServer listens on addr (":0" picks a free port) and serves the live
// endpoints in a background goroutine until Close.
func StartServer(addr string, st ServerState) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve: %w", err)
	}
	srv := &http.Server{Handler: NewServeMux(st)}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return &Server{Addr: ln.Addr().String(), srv: srv, hub: st.Timelines}, nil
}

// Close immediately shuts the server down, dropping in-flight requests.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.hub.Close()
	return s.srv.Close()
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests (a /metrics scrape, a pprof download) run to
// completion, and ctx bounds the wait — on expiry the remaining
// connections are dropped as with Close. The timeline hub closes first so
// /events streams end cleanly instead of pinning the graceful wait open.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	s.hub.Close()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
		return err
	}
	return nil
}
