package obs

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promNameRE is the Prometheus metric name grammar.
var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// parseExposition validates a Prometheus text exposition: every line is a
// `# TYPE` comment or a sample, every name matches the grammar, and no base
// metric is declared twice. It returns the sample values by sample name.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	declared := make(map[string]bool)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(typ)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			name, kind := fields[0], fields[1]
			if !promNameRE.MatchString(name) {
				t.Fatalf("line %d: illegal metric name %q", ln+1, name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown metric type %q", ln+1, kind)
			}
			if declared[name] {
				t.Fatalf("line %d: metric %q declared twice", ln+1, name)
			}
			declared[name] = true
			continue
		}
		// Sample line: name[{labels}] value.
		rest := line
		name := rest
		if i := strings.IndexAny(rest, "{ "); i >= 0 {
			name = rest[:i]
			if rest[i] == '{' {
				j := strings.Index(rest, "} ")
				if j < 0 {
					t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
				}
				name = rest[:j+1]
				rest = rest[:i] + rest[j+1:]
			}
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if !promNameRE.MatchString(base) {
			t.Fatalf("line %d: illegal sample name %q", ln+1, base)
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		if _, dup := samples[name]; dup {
			t.Fatalf("line %d: duplicate sample %q", ln+1, name)
		}
		samples[name] = v
	}
	return samples
}

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("exp.lu.cycles").Set(123)
	// These two sanitize to the same name; the renderer must disambiguate.
	r.Counter("a.b").Set(1)
	r.Counter("a-b").Set(2)
	r.Gauge("exp.lu.wall_seconds").Set(0.25)
	h := r.Histogram("cpu.lu.rob.occupancy", 1, 2, 4)
	for _, v := range []uint64{0, 1, 2, 3, 5} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, b.String())

	if got := samples["dynsched_exp_lu_cycles"]; got != 123 {
		t.Errorf("counter sample = %v, want 123", got)
	}
	if got := samples["dynsched_exp_lu_wall_seconds"]; got != 0.25 {
		t.Errorf("gauge sample = %v, want 0.25", got)
	}
	// The colliding names must both survive, one under a _dup suffix;
	// "a-b" sorts before "a.b" so it takes the plain name.
	if samples["dynsched_a_b"] != 2 || samples["dynsched_a_b_dup1"] != 1 {
		t.Errorf("collision handling: a-b=%v a.b=%v", samples["dynsched_a_b"], samples["dynsched_a_b_dup1"])
	}

	// Histogram: cumulative buckets, +Inf == count, sum correct.
	pre := "dynsched_cpu_lu_rob_occupancy"
	wantBuckets := map[string]float64{
		pre + `_bucket{le="1"}`:    2, // 0, 1
		pre + `_bucket{le="2"}`:    3,
		pre + `_bucket{le="4"}`:    4,
		pre + `_bucket{le="+Inf"}`: 5,
	}
	for name, want := range wantBuckets {
		if got := samples[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if samples[pre+"_sum"] != 11 || samples[pre+"_count"] != 5 {
		t.Errorf("sum/count = %v/%v, want 11/5", samples[pre+"_sum"], samples[pre+"_count"])
	}

	// Deterministic output: a second render must be byte-identical.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("two renders of the same snapshot differ")
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exp.lu.cycles").Set(7)
	board := NewJobBoard()
	ok := board.Enqueue("lu BASE")
	board.Start(ok)
	board.Finish(ok, nil)
	bad := board.Enqueue("lu RC-DS64")
	board.Start(bad)
	board.Finish(bad, errors.New("boom"))
	board.Enqueue("mp3d BASE")
	pr := NewProgress(nil, 0)
	lane := pr.Lane("lu")
	lane.Publish(100, 400)
	lane.SetTotal(1000)

	srv := httptest.NewServer(NewServeMux(ServerState{
		Registry: reg, Board: board, Progress: pr, Version: "test",
	}))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		return resp, readAll(t, resp)
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	samples := parseExposition(t, body)
	if samples["dynsched_exp_lu_cycles"] != 7 {
		t.Errorf("/metrics missing counter: %v", samples)
	}

	_, body = get("/metrics.json")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if snap.Counters["exp.lu.cycles"] != 7 {
		t.Errorf("/metrics.json counters = %v", snap.Counters)
	}

	_, body = get("/jobs")
	var bs BoardStatus
	if err := json.Unmarshal([]byte(body), &bs); err != nil {
		t.Fatalf("/jobs: %v", err)
	}
	if bs.Done != 1 || bs.Failed != 1 || bs.Queued != 1 || len(bs.Jobs) != 3 {
		t.Errorf("/jobs = %+v", bs)
	}
	if bs.Jobs[1].State != JobFailed || bs.Jobs[1].Err != "boom" {
		t.Errorf("failed job = %+v", bs.Jobs[1])
	}

	_, body = get("/progress")
	var ps ProgressStatus
	if err := json.Unmarshal([]byte(body), &ps); err != nil {
		t.Fatalf("/progress: %v", err)
	}
	if ps.Instrs != 100 || ps.TotalInstrs != 1000 || len(ps.Lanes) != 1 || ps.Lanes[0].Label != "lu" {
		t.Errorf("/progress = %+v", ps)
	}

	_, body = get("/healthz")
	var hz map[string]any
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	if hz["status"] != "ok" || hz["version"] != "test" {
		t.Errorf("/healthz = %v", hz)
	}

	if resp, _ := get("/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	if resp, _ := get("/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/ status = %d", resp.StatusCode)
	}
	if resp, _ := get("/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", resp.StatusCode)
	}
}

// TestServeNilSources: every endpoint must respond sensibly when the run has
// no registry, board, or progress attached.
func TestServeNilSources(t *testing.T) {
	srv := httptest.NewServer(NewServeMux(ServerState{Version: "test"}))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/metrics.json", "/jobs", "/progress", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d with nil sources", path, resp.StatusCode)
		}
	}
}

func TestStartServerEphemeralPort(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Inc()
	srv, err := StartServer("127.0.0.1:0", ServerState{Registry: reg, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if strings.HasSuffix(srv.Addr, ":0") {
		t.Fatalf("Addr = %q, expected a resolved port", srv.Addr)
	}
	resp, err := http.Get("http://" + srv.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Errorf("nil server Close: %v", err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}
