package cpu

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dynsched/internal/consistency"
	"dynsched/internal/isa"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

var updatePinned = flag.Bool("update", false, "rewrite the pinned goldens under testdata")

// pinnedVariants are DS configurations the paper grid never exercises:
// MSHR limits, prefetch, speculative loads, wide issue, no data
// dependences and a tiny store buffer.
var pinnedVariants = []struct {
	name string
	set  func(*Config)
}{
	{"default", func(*Config) {}},
	{"mshr2", func(c *Config) { c.MSHRs = 2 }},
	{"prefetch", func(c *Config) { c.Prefetch = true }},
	{"prefetch-mshr1", func(c *Config) { c.Prefetch, c.MSHRs = true, 1 }},
	{"specload", func(c *Config) { c.SpeculativeLoads = true }},
	{"specload-mshr1", func(c *Config) { c.SpeculativeLoads, c.MSHRs = true, 1 }},
	{"width4", func(c *Config) { c.IssueWidth = 4 }},
	{"nodeps", func(c *Config) { c.IgnoreDataDeps = true }},
	{"sb2", func(c *Config) { c.StoreBufDepth = 2 }},
}

// resultHash is an FNV-64a digest of every simulated field of a DS Result.
func resultHash(r Result) uint64 {
	h := fnv.New64a()
	b := r.Breakdown
	fmt.Fprintf(h, "%d %d %d %d %d %d|%d %d %d|%x|", b.Busy, b.Sync, b.Read, b.Write, b.Branch, b.Other,
		r.Instructions, r.Mispredicts, r.Prefetches, math.Float64bits(r.AvgOccupancy))
	if d := r.ReadMissDelay; d != nil {
		fmt.Fprintf(h, "%v %v %d", d.Bounds, d.Counts, d.Total)
	}
	return h.Sum64()
}

// TestDSPinnedEdgeGrid pins the DS replay on random traces across the four
// models, odd and power-of-two windows, and every variant above. The golden was
// recorded before the memory port replaced the rescanning issue loop, so
// it is the byte-identity check for that change and for any later one
// (regenerate with -update only for a deliberate behaviour change). CI
// runs it as part of the memory port equivalence gate.
func TestDSPinnedEdgeGrid(t *testing.T) {
	var got bytes.Buffer
	for seed := int64(1); seed <= 6; seed++ {
		tr := randomTrace(seed, 3000)
		for _, m := range consistency.Models {
			for _, w := range []int{1, 3, 7, 48, 64, 100, 256} {
				for _, v := range pinnedVariants {
					c := Config{Model: m, Window: w}
					v.set(&c)
					r, err := replay(ArchDS, tr, c)
					if err != nil {
						t.Fatalf("seed %d %v W%d %s: %v", seed, m, w, v.name, err)
					}
					fmt.Fprintf(&got, "%d %v W%d %s %016x\n", seed, m, w, v.name, resultHash(r))
				}
			}
		}
	}
	checkGolden(t, "ds_edge_grid.txt", got.Bytes())
}

// staticVariants are SSBR/SS configurations with shallow buffers, so that
// writes and reads stay unperformed while younger accesses decode, and
// with the DS-only knobs set: the static models share DS's memory port and
// issue call, and these lines check that none of those knobs reaches them.
var staticVariants = []struct {
	name string
	set  func(*Config)
}{
	{"default", func(*Config) {}},
	{"wb2", func(c *Config) { c.WriteBufDepth = 2 }},
	{"rb2", func(c *Config) { c.ReadBufDepth = 2 }},
	{"wb1-rb1", func(c *Config) { c.WriteBufDepth, c.ReadBufDepth = 1, 1 }},
	{"dsknobs", dsKnobs},
	{"dsknobs-wb2-rb2", func(c *Config) { dsKnobs(c); c.WriteBufDepth, c.ReadBufDepth = 2, 2 }},
}

// dsKnobs sets every DS-only knob to a value other than its default.
func dsKnobs(c *Config) {
	c.MSHRs, c.Prefetch, c.SpeculativeLoads = 1, true, true
	c.IssueWidth, c.StoreBufDepth = 4, 2
}

// TestLongTracePinnedGrid pins DS, SSBR and SS on traces long enough that
// their accesses span many memOp blocks, across the four models, DS
// windows from 1 to 4096 with every pinned DS variant, and shallow static
// buffers. The golden was recorded before memOps were recycled through a
// block ring, so it checks that recycling never reuses an access something
// still reads.
func TestLongTracePinnedGrid(t *testing.T) {
	var got bytes.Buffer
	for _, c := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"random", randomTrace(1, 50000)},
		{"longlived", longLivedTrace()},
	} {
		for _, m := range consistency.Models {
			for _, w := range []int{1, 64, 256, 4096} {
				for _, v := range pinnedVariants {
					cfg := Config{Model: m, Window: w}
					v.set(&cfg)
					r, err := replay(ArchDS, c.tr, cfg)
					if err != nil {
						t.Fatalf("%s %v DS W%d %s: %v", c.name, m, w, v.name, err)
					}
					fmt.Fprintf(&got, "%s %v DS W%d %s %016x\n", c.name, m, w, v.name, resultHash(r))
				}
			}
			for _, arch := range []Arch{ArchSSBR, ArchSS} {
				for _, v := range staticVariants {
					cfg := Config{Model: m}
					v.set(&cfg)
					r, err := replay(arch, c.tr, cfg)
					if err != nil {
						t.Fatalf("%s %v %s %s: %v", c.name, m, arch, v.name, err)
					}
					fmt.Fprintf(&got, "%s %v %s %s %016x\n", c.name, m, arch, v.name, resultHash(r))
				}
			}
		}
	}
	checkGolden(t, "long_trace_grid.txt", got.Bytes())
}

// TestMetricsSnapshotPinned pins the full metrics snapshot — the JSON that
// -metrics-out writes — of every model on random traces: the result
// counters and gauges and every occupancy and read-miss delay histogram,
// bucket by bucket with its sum. The configurations cover the default RC
// window, SC with prefetch at a large window, and the cycle-stepped path,
// whose histograms are observed one cycle at a time where the time-skip
// path observes whole quiet stretches at once.
func TestMetricsSnapshotPinned(t *testing.T) {
	reg := obs.NewRegistry()
	for seed := int64(1); seed <= 2; seed++ {
		tr := randomTrace(seed, 3000)
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"RC-W64", Config{Model: consistency.RC, Window: 64}},
			{"SC-W256-prefetch", Config{Model: consistency.SC, Window: 256, Prefetch: true}},
			{"RC-W64-noskip", Config{Model: consistency.RC, Window: 64, NoTimeSkip: true}},
		} {
			for _, arch := range Archs {
				cfg := c.cfg
				cfg.Metrics = reg
				cfg.MetricsPrefix = fmt.Sprintf("seed%d.%s.%s.", seed, c.name, arch)
				if _, err := replay(arch, tr, cfg); err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, c.name, arch, err)
				}
			}
		}
	}
	var got bytes.Buffer
	if err := reg.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_snapshot.json", got.Bytes())
}

// longLivedTrace keeps single accesses live while thousands of younger
// ones come and go: an acquire whose contention holds it at the reorder
// buffer head while a 4096-entry window fills with performed loads, then
// a store miss that stays unperformed in the store or write buffer while
// the models that let loads bypass stores perform thousands of loads.
func longLivedTrace() *trace.Trace {
	b := newTB()
	loads := func() {
		for i := 0; i < 3000; i++ {
			b.load(uint8(1+i%12), 0, uint64(8*(i%512)), false)
		}
	}
	b.lock(8192, 6000, 50)
	loads()
	b.unlock(8192, 1)
	b.emit(trace.Event{Instr: isa.Instr{Op: isa.OpSt}, Addr: 8200, Miss: true, Latency: 20000})
	loads()
	return b.halt()
}

// checkGolden compares got line by line with testdata/name, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("grid has %d rows, golden %d", len(gl), len(wl))
	}
	bad := 0
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", gl[i], wl[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d configurations differ from the golden", bad, len(gl)-1)
	}
}
