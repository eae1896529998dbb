package obs

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestServeMetricsConcurrentScrape hammers /metrics while simulator workers
// finish runs: each run fills its own LocalHistogram and publishes it, and
// its cycle count, into the same shared names when it ends, exactly as the
// replay models and tango do. The scrapes race those merges; under -race it
// doubles as the data-race proof. Each response must be a well-formed
// exposition (the parser rejects duplicate names, bad grammar, malformed
// samples), and once the writers stop, a final scrape must account for
// every sample exactly.
func TestServeMetricsConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(NewServeMux(ServerState{Registry: r, Version: "test"}))
	defer srv.Close()

	const (
		writers    = 4
		runs       = 50
		perRun     = 100
		scrapes    = 25
		perWriter  = runs * perRun
		histBounds = 8
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for run := 0; run < runs; run++ {
				h := NewLocalHistogram(1, 2, 4, histBounds)
				for i := 0; i < perRun; i++ {
					h.Observe(uint64(i % (histBounds + 2)))
				}
				r.MergeHistogram("cpu.scrape.occupancy", h)
				r.Counter("cpu.scrape.cycles").Add(perRun)
			}
		}(w)
	}

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status = %d", resp.StatusCode)
		}
		return readAll(t, resp)
	}

	var sg sync.WaitGroup
	bodies := make([]string, scrapes)
	for i := 0; i < scrapes; i++ {
		sg.Add(1)
		go func(i int) {
			defer sg.Done()
			bodies[i] = scrape()
		}(i)
	}
	sg.Wait()
	wg.Wait()

	// Every mid-run scrape must already be parseable and bounded by what
	// the writers could have produced so far.
	for i, body := range bodies {
		if body == "" {
			continue // empty registry race at startup renders no lines
		}
		samples := parseExposition(t, body)
		if c := samples["dynsched_cpu_scrape_cycles"]; c > writers*perWriter {
			t.Errorf("scrape %d: counter %v exceeds the %d samples written", i, c, writers*perWriter)
		}
		if n := samples["dynsched_cpu_scrape_occupancy_count"]; n > writers*perWriter {
			t.Errorf("scrape %d: histogram count %v exceeds the %d samples written", i, n, writers*perWriter)
		}
	}

	// After the writers finish their runs, the totals are exact.
	final := parseExposition(t, scrape())
	if got := final["dynsched_cpu_scrape_cycles"]; got != writers*perWriter {
		t.Errorf("final counter = %v, want %d", got, writers*perWriter)
	}
	if got := final["dynsched_cpu_scrape_occupancy_count"]; got != writers*perWriter {
		t.Errorf("final histogram count = %v, want %d", got, writers*perWriter)
	}
	inf := final[`dynsched_cpu_scrape_occupancy_bucket{le="+Inf"}`]
	if inf != writers*perWriter {
		t.Errorf("+Inf bucket = %v, want %d", inf, writers*perWriter)
	}
	// Cumulative buckets never decrease left to right.
	prev := -1.0
	for _, le := range []string{"1", "2", "4", "8", "+Inf"} {
		v, ok := final[`dynsched_cpu_scrape_occupancy_bucket{le="`+le+`"}`]
		if !ok {
			t.Fatalf("missing bucket le=%q in final scrape", le)
		}
		if v < prev {
			t.Errorf("bucket le=%q = %v < previous %v: not cumulative", le, v, prev)
		}
		prev = v
	}
}
