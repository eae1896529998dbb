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
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/ds_edge_grid.txt")

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
// runs it as part of the DS memory port equivalence gate.
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
	path := filepath.Join("testdata", "ds_edge_grid.txt")
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
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
