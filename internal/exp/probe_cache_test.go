package exp

// The probe sweeps' result cache: analyze and timeline attach the same
// instruments to the same cells, so whichever runs first fills the store
// and the other replays nothing, with every report and registry snapshot
// byte-identical to an uncached run. A store whose cells all hit never
// decodes a trace, and a damaged trace entry still regenerates before any
// cell runs.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/cache"
	"dynsched/internal/critpath"
	"dynsched/internal/faultinject"
	"dynsched/internal/obs"
)

var probeApps = []string{"lu", "mp3d"}

// probeOpts returns the options of the probe-cache tests: small traces of
// probeApps, through store (nil for an uncached run).
func probeOpts(store *cache.Store, workers int) Options {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = probeApps
	opts.Workers = workers
	opts.Cache = store
	return opts
}

func openStore(t *testing.T, dir string) *cache.Store {
	t.Helper()
	s, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// probeSweep is one of the two probe sweeps, rendered to every artifact it
// publishes: the text, JSON (and CSV) reports and the registry snapshot its
// Record function fills.
type probeSweep struct {
	name string
	run  func(t *testing.T, e *Experiment) (string, error)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

var probeSweeps = []probeSweep{
	{"analyze", func(t *testing.T, e *Experiment) (string, error) {
		rep, err := e.AnalyzeAll()
		if rep == nil {
			return "", err
		}
		reg := obs.NewRegistry()
		RecordAnalyze(reg, rep)
		return rep.Format() + mustJSON(t, rep) + mustJSON(t, reg.Snapshot()), err
	}},
	{"timeline", func(t *testing.T, e *Experiment) (string, error) {
		rep, err := e.TimelineAll()
		if rep == nil {
			return "", err
		}
		reg := obs.NewRegistry()
		RecordTimeline(reg, rep)
		return rep.Format() + mustJSON(t, rep) + rep.CSV() + mustJSON(t, reg.Snapshot()), err
	}},
}

// assertUndecoded fails unless every application's run came from the store
// and its trace was never decoded while w watched: no run's events
// appeared, by generation or by decoding, and each run holds only bytes.
func assertUndecoded(t *testing.T, e *Experiment, w *eventWatch) {
	t.Helper()
	_, gains := w.stats()
	for _, app := range e.Apps() {
		if events, bytes := heldState(e, app); gains[app] != 0 || events || !bytes {
			t.Errorf("%s: trace decoded (or regenerated) by a sweep whose cells all hit", app)
		}
	}
}

// TestProbeCacheSharedAcrossSweeps runs one probe sweep on a fresh store
// and then the other on the same store with a fault armed at every one of
// its cell sites: the second sweep must replay nothing and decode no trace,
// and both must publish exactly the bytes of uncached runs, at any worker
// count and in either order.
func TestProbeCacheSharedAcrossSweeps(t *testing.T) {
	want := make([]string, len(probeSweeps))
	for i, sw := range probeSweeps {
		got, err := sw.run(t, New(probeOpts(nil, 1)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = got
	}
	for _, workers := range []int{1, 4} {
		for _, order := range [][2]int{{0, 1}, {1, 0}} {
			first, second := probeSweeps[order[0]], probeSweeps[order[1]]
			t.Run(fmt.Sprintf("j%d/%s-then-%s", workers, first.name, second.name), func(t *testing.T) {
				dir := t.TempDir()
				cold := openStore(t, dir)
				got, err := first.run(t, New(probeOpts(cold, workers)))
				if err != nil {
					t.Fatal(err)
				}
				if got != want[order[0]] {
					t.Errorf("cold %s differs from the uncached run", first.name)
				}

				warm := openStore(t, dir)
				opts := probeOpts(warm, workers)
				opts.Faults = faultinject.New()
				var sites []string
				for _, app := range probeApps {
					for _, s := range analyzeSpecs() {
						site := "cell." + cellSite(app, probe(second.name), s.Label)
						opts.Faults.Arm(site, faultinject.Fault{Kind: faultinject.KindError, Times: 99})
						sites = append(sites, site)
					}
				}
				e := New(opts)
				w := watchEvents(t)
				got, err = second.run(t, e)
				if err != nil {
					t.Fatalf("warm %s: %v", second.name, err)
				}
				if got != want[order[1]] {
					t.Errorf("warm %s differs from the uncached run", second.name)
				}
				for _, site := range sites {
					if n := opts.Faults.Seen(site); n != 0 {
						t.Errorf("warm %s replayed %s (%d times)", second.name, site, n)
					}
				}
				if lookups := uint64(len(probeApps) * (len(analyzeSpecs()) + 1)); warm.Hits() != lookups || warm.Misses() != 0 {
					t.Errorf("warm %s: %d hits, %d misses; want %d hits, no misses", second.name, warm.Hits(), warm.Misses(), lookups)
				}
				assertUndecoded(t, e, w)
			})
		}
	}
}

// TestWarmSweepDecodesNoTrace: a plain sweep whose cells all hit the store
// leaves every trace undecoded, and a table that reads the trace still
// decodes it on demand.
func TestWarmSweepDecodesNoTrace(t *testing.T) {
	dir := t.TempDir()
	cold, err := New(probeOpts(openStore(t, dir), 2)).Figure3All()
	if err != nil {
		t.Fatal(err)
	}
	e := New(probeOpts(openStore(t, dir), 2))
	w := watchEvents(t)
	warm, err := e.Figure3All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm columns differ from cold")
	}
	assertUndecoded(t, e, w)

	rows, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(probeOpts(nil, 2)).Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatal("Table 1 from a lazily decoded trace differs from a generated one")
	}
}

// TestProbeCacheCorruptTraceRegenerates damages the trace entries of a
// store that a probe sweep filled. A trace whose bytes fail their container
// checks under a re-sealed entry CRC is regenerated before any cell runs,
// and its probe entries, keyed by the unchanged content address, still
// hit; a store with every object bit-flipped recomputes everything. Either
// way the reports are those of an uncached run.
func TestProbeCacheCorruptTraceRegenerates(t *testing.T) {
	sw := probeSweeps[1]
	want, err := sw.run(t, New(probeOpts(nil, 2)))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("resealed-trace", func(t *testing.T) {
		dir := t.TempDir()
		store := openStore(t, dir)
		e := New(probeOpts(store, 2))
		if _, err := probeSweeps[0].run(t, e); err != nil {
			t.Fatal(err)
		}
		for _, app := range probeApps {
			payload, ok := store.Get(traceKind, e.traceKey(app))
			if !ok {
				t.Fatalf("%s: no trace entry", app)
			}
			sc, traceBytes, err := decodeTraceEntry(payload)
			if err != nil {
				t.Fatal(err)
			}
			bad := append([]byte(nil), traceBytes...)
			bad[len(bad)/2] ^= 0x40
			entry, err := encodeTraceEntry(sc, bad)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(traceKind, e.traceKey(app), entry); err != nil {
				t.Fatal(err)
			}
		}

		hurt := openStore(t, dir)
		e = New(probeOpts(hurt, 2))
		got, err := sw.run(t, e)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatal("a damaged trace entry changed the report")
		}
		// The damaged trace entries pass the store's CRC, but their
		// container checks reject them, so each counts as a miss and is
		// regenerated.
		if want := uint64(len(probeApps) * len(analyzeSpecs())); hurt.Hits() != want {
			t.Errorf("%d hits, want %d: every probe entry", hurt.Hits(), want)
		}
		if want := uint64(len(probeApps)); hurt.Misses() != want {
			t.Errorf("%d misses, want %d: the damaged trace entries", hurt.Misses(), want)
		}

		// The regeneration rewrote the entries: the next sweep is all hits
		// and decodes nothing.
		again := openStore(t, dir)
		e = New(probeOpts(again, 2))
		w := watchEvents(t)
		if got, err := sw.run(t, e); err != nil || got != want {
			t.Fatalf("rewritten store diverged (err %v)", err)
		}
		if again.Misses() != 0 {
			t.Fatalf("rewritten store missed %d lookups", again.Misses())
		}
		assertUndecoded(t, e, w)
	})

	t.Run("bit-flipped-store", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := probeSweeps[0].run(t, New(probeOpts(openStore(t, dir), 1))); err != nil {
			t.Fatal(err)
		}
		var flipped int
		err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
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
		hurt := openStore(t, dir)
		got, err := sw.run(t, New(probeOpts(hurt, 2)))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatal("corrupted store changed the report")
		}
		if hurt.Hits() != 0 {
			t.Fatalf("corrupted entries produced %d hits", hurt.Hits())
		}
	})
}

// poisonProbe overwrites the probe entry of app's cell spec with mutate
// applied, under a valid entry CRC, and returns a function that restores
// the honest entry.
func poisonProbe(t *testing.T, store *cache.Store, e *Experiment, app string, spec CellSpec, mutate func(*cellOutcome)) (restore func()) {
	t.Helper()
	run, err := e.lazyRun(app)
	if err != nil {
		t.Fatal(err)
	}
	honest, ok := cellGet(store, "analyze", run.ContentAddr(), spec)
	if !ok {
		t.Fatalf("no probe entry for %s %s", app, spec.Label)
	}
	bad, _ := cellGet(store, "analyze", run.ContentAddr(), spec) // a second decode: shares no samples with honest
	mutate(&bad)
	cellPut(store, "analyze", run.ContentAddr(), spec, bad)
	return func() { cellPut(store, "analyze", run.ContentAddr(), spec, honest) }
}

// verifyPoisonedProbe runs the timeline sweep with every hit recomputed
// and requires the poisoned cell, and only it, to fail terminally on the
// divergence.
func verifyPoisonedProbe(t *testing.T, dir, site string) {
	t.Helper()
	store := openStore(t, dir)
	opts := probeOpts(store, 2)
	opts.CacheVerify = 1
	opts.Retries = 2
	_, err := New(opts).TimelineAll()
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(pe.Cells) != 1 || pe.Cells[0].Label != site {
		t.Fatalf("failures %v, want only %q", pe.FailedLabels(), site)
	}
	if n := pe.Cells[0].Attempts; n != 1 {
		t.Fatalf("divergence took %d attempts, want a terminal failure on the first", n)
	}
	if !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("error %v does not name the divergence", err)
	}
	if st := store.Stats(); st.Divergent != 1 {
		t.Fatalf("divergence count %d, want 1", st.Divergent)
	}
}

// verifyPoisonedProbes fills a store with the analyze sweep, then poisons
// one probe entry's attribution bucket, and separately one of its samples:
// under -cache-verify 1 each is a terminal failure of that cell alone.
func verifyPoisonedProbes(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	e := New(probeOpts(store, 2))
	if _, err := e.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	spec := analyzeSpecs()[4]
	for _, poison := range []struct {
		name   string
		mutate func(*cellOutcome)
	}{
		{"attribution bucket", func(o *cellOutcome) { o.Attr.Cycles[critpath.Busy]++ }},
		{"sample", func(o *cellOutcome) { o.Samples[len(o.Samples)/2].Read++ }},
	} {
		restore := poisonProbe(t, store, e, "lu", spec, poison.mutate)
		verifyPoisonedProbe(t, dir, "lu timeline "+spec.Label)
		restore()
	}
}
