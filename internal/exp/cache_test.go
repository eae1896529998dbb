package exp

// Warm-vs-cold equivalence for the persistent result cache: a sweep served
// from the store must be indistinguishable — in columns, metrics, and
// ordering — from the cold sweep that populated it, at any worker count,
// and any store damage must degrade to recomputation, never to different
// numbers.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/cache"
	"dynsched/internal/cpu"
	"dynsched/internal/obs"
)

// cachedSweep runs Figure3All on a fresh Experiment backed by the store,
// returning the columns and the registry snapshot FNV.
func cachedSweep(t *testing.T, store *cache.Store, workers int, verify float64) ([]AppColumns, string) {
	return cachedRun(t, store, workers, verify, (*Experiment).Figure3All)
}

// cachedRun runs one sweep on a fresh Experiment backed by the store.
func cachedRun(t *testing.T, store *cache.Store, workers int, verify float64, sweep func(*Experiment) ([]AppColumns, error)) ([]AppColumns, string) {
	t.Helper()
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"lu", "mp3d"}
	opts.Workers = workers
	opts.Cache = store
	opts.CacheVerify = verify
	opts.Metrics = reg
	e := New(opts)
	cols, err := sweep(e)
	if err != nil {
		t.Fatal(err)
	}
	return cols, obs.SnapshotFNV(reg.Snapshot())
}

func TestCacheWarmMatchesColdAcrossWorkers(t *testing.T) {
	for _, in := range []struct {
		name  string
		sweep func(*Experiment) ([]AppColumns, error)
	}{
		{"fig3", (*Experiment).Figure3All},
		{"ablation-storebuf", func(e *Experiment) ([]AppColumns, error) {
			cols, err := e.AblationStoreBuffer("mp3d")
			return []AppColumns{{App: "mp3d", Cols: cols}}, err
		}},
	} {
		t.Run(in.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := cache.Open(dir, cache.Options{Version: "test"})
			if err != nil {
				t.Fatal(err)
			}
			cold, coldFNV := cachedRun(t, store, 1, 0, in.sweep)
			if store.Misses() == 0 {
				t.Fatal("cold sweep recorded no misses")
			}
			for _, workers := range []int{1, 4} {
				warmStore, err := cache.Open(dir, cache.Options{Version: "test"})
				if err != nil {
					t.Fatal(err)
				}
				warm, warmFNV := cachedRun(t, warmStore, workers, 0, in.sweep)
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("warm columns at %d workers differ from cold", workers)
				}
				if warmFNV != coldFNV {
					t.Fatalf("warm metrics FNV %s != cold %s at %d workers", warmFNV, coldFNV, workers)
				}
				// Every cell must come from the store, not just the traces.
				cells := 0
				for _, ac := range warm {
					cells += len(ac.Cols)
				}
				if hits := warmStore.Hits(); hits < uint64(cells) {
					t.Fatalf("warm sweep at %d workers recorded %d hits for %d cells", workers, hits, cells)
				}
				if warmStore.Misses() != 0 {
					t.Fatalf("warm sweep at %d workers recorded %d misses", workers, warmStore.Misses())
				}
			}
		})
	}
}

func TestCacheCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldFNV := cachedSweep(t, store, 1, 0)

	// Bit-flip every object in the store: every lookup must degrade to a
	// CRC-rejected miss and a recompute with identical results.
	var flipped int
	err = filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x40
		flipped++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if flipped == 0 {
		t.Fatal("no objects to corrupt")
	}

	hurt, hurtErr := cache.Open(dir, cache.Options{Version: "test"})
	if hurtErr != nil {
		t.Fatal(hurtErr)
	}
	warm, warmFNV := cachedSweep(t, hurt, 2, 0)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("corrupted store changed sweep results")
	}
	if warmFNV != coldFNV {
		t.Fatalf("corrupted store changed metrics FNV: %s != %s", warmFNV, coldFNV)
	}
	if hurt.Hits() != 0 {
		t.Fatalf("corrupted entries produced %d hits", hurt.Hits())
	}
	// The recompute repopulated the store: a third sweep is all hits again.
	again, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, fnv := cachedSweep(t, again, 1, 0); fnv != coldFNV {
		t.Fatal("repopulated store diverged")
	}
	if again.Misses() != 0 {
		t.Fatalf("repopulated store still missing %d lookups", again.Misses())
	}
}

func TestCacheVerifyPassesOnHonestStore(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldFNV := cachedSweep(t, store, 1, 0)
	warmStore, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	warm, warmFNV := cachedSweep(t, warmStore, 2, 1.0)
	if !reflect.DeepEqual(cold, warm) || warmFNV != coldFNV {
		t.Fatal("verified warm sweep diverged from cold")
	}
	if st := warmStore.Stats(); st.Verified == 0 || st.Divergent != 0 {
		t.Fatalf("verify counters = %+v, want verified > 0 and no divergence", st)
	}
}

func TestCacheVerifyDetectsPoisonedCell(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	// Populate, then overwrite one cell entry with wrong numbers under a
	// perfectly valid envelope — the CRC cannot catch this; only the
	// recompute can.
	cachedSweep(t, store, 1, 0)
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"lu", "mp3d"}
	opts.Cache = store
	opts.Metrics = reg
	e := New(opts)
	run, err := e.Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	spec := Figure3Specs()[1]
	CellCachePut(store, run.ContentAddr(), spec, cpu.Breakdown{Busy: 12345}, 999)

	poisoned, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	opts2 := DefaultOptions()
	opts2.Scale = apps.ScaleSmall
	opts2.Apps = []string{"lu", "mp3d"}
	opts2.Cache = poisoned
	opts2.CacheVerify = 1.0
	opts2.Metrics = reg2
	if _, err := New(opts2).Figure3All(); err == nil {
		t.Fatal("poisoned cell survived -cache-verify 1")
	} else if !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("error %v does not name the divergence", err)
	}
	if st := poisoned.Stats(); st.Divergent == 0 {
		t.Fatalf("divergence not counted: %+v", st)
	}

	t.Run("probe", verifyPoisonedProbes)
}

// TestCacheUndecodableCellIsMiss stores cell and probe entries whose
// payloads pass the store's checks but do not decode. Each lookup is a
// miss, not a hit, and the entry is gone, so the recomputed outcome that
// replaces it is the next hit.
func TestCacheUndecodableCellIsMiss(t *testing.T) {
	const addr = "0123456789abcdef"
	spec := Figure3Specs()[1]
	for _, p := range []probe{noProbe, "analyze"} {
		store := openStore(t, t.TempDir())
		kind, _, err := p.entry(cellOutcome{})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(kind, cellKey(addr, spec), []byte(`{"breakdown": 7}`)); err != nil {
			t.Fatal(err)
		}
		if _, ok := cellGet(store, p, addr, spec); ok {
			t.Fatalf("%s: an undecodable entry was served", kind)
		}
		if h, m := store.Hits(), store.Misses(); h != 0 || m != 1 {
			t.Fatalf("%s: %d hits, %d misses after an undecodable entry, want 0 and 1", kind, h, m)
		}
		if _, ok := store.Get(kind, cellKey(addr, spec)); ok {
			t.Fatalf("%s: the undecodable entry was kept", kind)
		}
		want := cellOutcome{cellResult: cellResult{Breakdown: cpu.Breakdown{Busy: 5}, Instructions: 5}}
		cellPut(store, p, addr, spec, want)
		if got, ok := cellGet(store, p, addr, spec); !ok || got.Breakdown != want.Breakdown {
			t.Fatalf("%s: the recomputed entry was not served (hit %t)", kind, ok)
		}
		if h, m := store.Hits(), store.Misses(); h != 1 || m != 2 {
			t.Fatalf("%s: %d hits, %d misses, want 1 and 2", kind, h, m)
		}
	}
}

// TestTraceEntrySharedWithAndWithoutMetrics checks that whether a run
// collects metrics does not split the trace entries: a store filled by a
// run with metrics serves a run without them, and the reverse. A warm run
// with metrics restores the generation's fragment from the entry, so its
// snapshot hashes as a cold run's does, whichever kind of run filled the
// store.
func TestTraceEntrySharedWithAndWithoutMetrics(t *testing.T) {
	run := func(t *testing.T, store *cache.Store, metrics bool) string {
		t.Helper()
		opts := probeOpts(store, 2)
		var reg *obs.Registry
		if metrics {
			reg = obs.NewRegistry()
			opts.Metrics = reg
		}
		if _, err := New(opts).Table1(); err != nil {
			t.Fatal(err)
		}
		if reg == nil {
			return ""
		}
		return obs.SnapshotFNV(reg.Snapshot())
	}
	coldFNV := run(t, nil, true)
	for _, c := range []struct {
		name               string
		coldWith, warmWith bool
	}{
		{"cold-with-warm-without", true, false},
		{"cold-without-warm-with", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cold := openStore(t, dir)
			if fnv := run(t, cold, c.coldWith); c.coldWith && fnv != coldFNV {
				t.Fatalf("cold metrics FNV %s with a store, %s without", fnv, coldFNV)
			}
			if h, m := cold.Hits(), cold.Misses(); h != 0 || m != uint64(len(probeApps)) {
				t.Fatalf("cold run: %d hits, %d misses, want 0 and %d", h, m, len(probeApps))
			}
			warm := openStore(t, dir)
			fnv := run(t, warm, c.warmWith)
			if h, m := warm.Hits(), warm.Misses(); h != uint64(len(probeApps)) || m != 0 {
				t.Fatalf("warm run: %d hits, %d misses, want %d and 0", h, m, len(probeApps))
			}
			if c.warmWith && fnv != coldFNV {
				t.Fatalf("warm metrics FNV %s, cold %s", fnv, coldFNV)
			}
		})
	}
}
