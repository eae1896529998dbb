// Command tracedrun is the benchmark's traced run. It performs one workload
// in-process, calling each layer's public functions itself and wrapping a
// span around every call, so the per-layer numbers come from outside the
// program under test. It writes the workload's outputs in the formats the
// hidelat command prints (the benchmark checks both against one set of
// digests), the spans, and the per-layer metrics.
//
//	tracedrun -workload fig3-paper|store-paper [-scale paper]
//	          [-tracecpu 1] -out DIR
//
// The sequence mirrors what hidelat does for the same workload at -j 1:
//
//   - fig3-paper: per app, generate the trace and replay the Figure 3 cells.
//   - store-paper: set-up generates every trace into a fresh result store.
//     The fig4 and scpf steps each open the store, read and decode the
//     traces, and look up, replay and store each cell. Then analyze
//     replays the attribution cells with a critical-path collector, and
//     timeline with a collector and an interval sampler. To price each
//     instrument, every analyze replay is preceded by the same cell
//     replayed bare, and every timeline replay by the cell with the
//     collector alone; these reference replays are spans of layer "bench"
//     and stay out of the per-layer figures.
//
// The store's trace entries hold the bare v3 bytes; hidelat's also carry a
// small JSON sidecar of generation statistics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynsched"
	"dynsched/internal/apps"
	"dynsched/internal/cache"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/critpath"
	"dynsched/internal/exp"
	"dynsched/internal/mem"
	"dynsched/internal/obs"
	"dynsched/internal/tango"
	"dynsched/internal/trace"
	"dynsched/internal/vm"
	"dynsched/perfbench/span"
)

// Timeline sampling as the timeline experiment configures it: 2^10-cycle
// intervals, at most 256 points.
const (
	timelineShift     = 10
	timelineMaxPoints = 256
)

// layerStats accumulates the work counts measured at the span boundaries.
type layerStats struct {
	tangoInstr             uint64
	encEvents, encBytes    uint64
	decEvents              uint64
	cacheHits, cacheMisses uint64
	cpuInstr, simCycles    uint64
	archNs, archInstr      map[string]float64
	// Probe replays and the reference replays interleaved with them: bare
	// before each collector replay, collector-only before each timeline one.
	critNs, tlNs, bareRefNs, critRefNs float64
}

type runner struct {
	rec      *span.Recorder
	work     int           // the workload's root span
	workCost time.Duration // recorder cost while the root was open
	scale    apps.Scale
	traceCPU int
	apps     []string
	out      string
	st       layerStats
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracedrun:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "fig3-paper or store-paper")
	scaleName := flag.String("scale", "paper", "problem scale: small, medium or paper")
	traceCPU := flag.Int("tracecpu", 1, "processor whose trace is replayed")
	out := flag.String("out", "", "directory for outputs, spans and metrics")
	flag.Parse()
	scale, err := apps.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	d := &runner{rec: span.NewRecorder(), scale: scale, traceCPU: *traceCPU, apps: apps.Names(), out: *out}
	d.st.archNs, d.st.archInstr = map[string]float64{}, map[string]float64{}

	switch *workload {
	case "fig3-paper":
		err = d.fig3()
	case "store-paper":
		err = d.store()
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		return err
	}
	return d.writeResults()
}

// beginWork opens the workload's root span: the timed part, after set-up.
func (d *runner) beginWork(name string) {
	d.workCost = d.rec.Cost()
	d.work = d.rec.Begin("exp", "workload "+name)
}

func (d *runner) endWork() {
	d.rec.End(d.work)
	d.workCost = d.rec.Cost() - d.workCost
}

// do runs fn inside a span and returns the span's duration.
func (d *runner) do(layer, name string, fn func()) time.Duration {
	id := d.rec.Begin(layer, name)
	fn()
	return d.rec.End(id)
}

func archKey(arch string, window int) string {
	if arch == "DS" {
		return fmt.Sprintf("DS%d", window)
	}
	return arch
}

// replayed books one replay's simulated work and host time under its
// architecture key.
func (d *runner) replayed(key string, dur time.Duration, b cpu.Breakdown, instr uint64) {
	d.st.cpuInstr += instr
	d.st.simCycles += b.Total()
	d.st.archNs[key] += float64(dur.Nanoseconds())
	d.st.archInstr[key] += float64(instr)
}

// generate builds and runs one application on the multiprocessor and
// returns the traced processor's trace, as exp's trace generation does.
func (d *runner) generate(app string) (*trace.Trace, error) {
	var a *apps.App
	var err error
	d.do("tango", "apps.Build "+app, func() { a, err = apps.Build(app, 16, d.scale) })
	if err != nil {
		return nil, err
	}
	cfg := tango.Config{NumCPUs: 16, TraceCPU: d.traceCPU % 16, Mem: mem.DefaultConfig()}
	var m *vm.PagedMem
	var res *tango.Result
	d.do("tango", "tango.Run "+app, func() {
		res, err = tango.Run(a.Progs, func(pm *vm.PagedMem) { m = pm; a.Init(pm) }, cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app, err)
	}
	for _, c := range res.CPUStats {
		d.st.tangoInstr += c.Instructions
	}
	if a.Check != nil {
		if err := a.Check(m); err != nil {
			return nil, fmt.Errorf("%s failed its result check: %w", app, err)
		}
	}
	if err := res.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", app, err)
	}
	return res.Trace.Freeze(), nil
}

func (d *runner) traceKey(app string) string {
	return fmt.Sprintf("app=%s|scale=%s|tracecpu=%d", app, d.scale, d.traceCPU%16)
}

func (d *runner) writeFile(name string, data []byte) error {
	return os.WriteFile(filepath.Join(d.out, name), data, 0o644)
}

// columns replays specs over every app's trace, normalizes each app's
// columns and renders the CSV hidelat -csv prints. With a store, each cell
// is looked up first and stored after it is computed.
func (d *runner) columns(step string, specs []exp.CellSpec, traces []*trace.Trace, addrs []string, store *cache.Store) error {
	acs := make([]exp.AppColumns, len(d.apps))
	for i, app := range d.apps {
		acs[i].App = app
		for _, spec := range specs {
			var col exp.Column
			var err error
			if store != nil {
				var b cpu.Breakdown
				var instr uint64
				var hit bool
				d.do("cache", "exp.CellCacheGet", func() { b, instr, hit = exp.CellCacheGet(store, addrs[i], spec) })
				if hit {
					// fig4 and scpf share their BASE cell: the second step
					// reads it back, as hidelat does.
					if col, err = exp.SpecColumn(spec, b, instr); err != nil {
						return err
					}
					acs[i].Cols = append(acs[i].Cols, col)
					continue
				}
			}
			key := archKey(spec.Arch, spec.Window)
			dur := d.do("cpu", "exp.RunSpec "+key, func() { col, err = exp.RunSpec(traces[i], spec, &exp.Options{}) })
			if err != nil {
				return fmt.Errorf("%s %s %s: %w", step, app, spec.Label, err)
			}
			d.replayed(key, dur, col.Breakdown, col.Instructions)
			if store != nil {
				d.do("cache", "exp.CellCachePut", func() { exp.CellCachePut(store, addrs[i], spec, col.Breakdown, col.Instructions) })
			}
			acs[i].Cols = append(acs[i].Cols, col)
		}
		d.do("exp", "exp.NormalizeColumns", func() { exp.NormalizeColumns(acs[i].Cols) })
	}
	var csv string
	d.do("exp", "exp.ColumnsCSV", func() { csv = exp.ColumnsCSV(acs) })
	return d.writeFile(step+".csv", []byte(csv))
}

func (d *runner) fig3() error {
	d.beginWork("fig3")
	traces := make([]*trace.Trace, len(d.apps))
	for i, app := range d.apps {
		tr, err := d.generate(app)
		if err != nil {
			return err
		}
		traces[i] = tr
	}
	if err := d.columns("fig3", exp.Figure3Specs(), traces, nil, nil); err != nil {
		return err
	}
	d.endWork()
	return nil
}

func (d *runner) openStore(dir string) (*cache.Store, error) {
	var store *cache.Store
	var err error
	d.do("cache", "cache.Open", func() { store, err = cache.Open(dir, cache.Options{Version: dynsched.Version}) })
	return store, err
}

func (d *runner) closeStore(store *cache.Store) error {
	d.st.cacheHits += store.Hits()
	d.st.cacheMisses += store.Misses()
	var err error
	d.do("cache", "cache.Close", func() { err = store.Close() })
	return err
}

// fillStore is the set-up of the store-backed workloads: every trace,
// generated and encoded into a fresh result store.
func (d *runner) fillStore(dir string) error {
	root := d.rec.Begin("exp", "setup")
	defer d.rec.End(root)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := d.openStore(dir)
	if err != nil {
		return err
	}
	for _, app := range d.apps {
		tr, err := d.generate(app)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		d.do("trace", "trace.WriteTo "+app, func() { _, err = tr.WriteTo(&buf) })
		if err != nil {
			return err
		}
		d.st.encEvents += uint64(tr.Len())
		d.st.encBytes += uint64(buf.Len())
		d.do("cache", "cache.Put "+app, func() { err = store.Put("trace", d.traceKey(app), buf.Bytes()) })
		if err != nil {
			return err
		}
	}
	var cerr error
	d.do("cache", "cache.Close", func() { cerr = store.Close() })
	return cerr
}

// openTraces opens the store and reads and decodes every app's trace, as a
// hidelat step started against the store does. It also returns each
// trace's content address, the key of its cell entries.
func (d *runner) openTraces(dir string) (*cache.Store, []*trace.Trace, []string, error) {
	store, err := d.openStore(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	traces := make([]*trace.Trace, len(d.apps))
	addrs := make([]string, len(d.apps))
	for i, app := range d.apps {
		var payload []byte
		var ok bool
		d.do("cache", "cache.Get "+app, func() { payload, ok = store.Get("trace", d.traceKey(app)) })
		if !ok {
			return nil, nil, nil, fmt.Errorf("%s: trace missing from the store", app)
		}
		var tr *trace.Trace
		d.do("trace", "trace.ReadTrace "+app, func() { tr, err = trace.ReadTrace(bytes.NewReader(payload)) })
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", app, err)
		}
		d.st.decEvents += uint64(tr.Len())
		traces[i] = tr.Freeze()
		h := fnv.New64a()
		h.Write(payload)
		addrs[i] = fmt.Sprintf("%016x", h.Sum64())
	}
	return store, traces, addrs, nil
}

// store is the store-paper workload: one set-up fills the store, and the
// timed part runs the fig4 and scpf sweeps and then the analyze and
// timeline probes against it.
func (d *runner) store() error {
	dir := filepath.Join(d.out, "store")
	if err := d.fillStore(dir); err != nil {
		return err
	}
	d.beginWork("store")
	if err := d.sweep(dir); err != nil {
		return err
	}
	if err := d.probes(dir); err != nil {
		return err
	}
	d.endWork()
	return nil
}

func (d *runner) sweep(dir string) error {
	for _, step := range []struct {
		name  string
		specs []exp.CellSpec
	}{{"fig4", exp.Figure4Specs()}, {"scpf", exp.SCPrefetchSpecs()}} {
		store, traces, addrs, err := d.openTraces(dir)
		if err != nil {
			return err
		}
		if err := d.columns(step.name, step.specs, traces, addrs, store); err != nil {
			return err
		}
		if err := d.closeStore(store); err != nil {
			return err
		}
	}
	return nil
}

// probeCell is one cell of the attribution matrix the analyze and timeline
// steps replay: BASE, RC-SSBR, RC-SS and the RC-DS window sweep.
type probeCell struct {
	label, arch string
	model       consistency.Model
	window      int
}

func probeCells() []probeCell {
	cells := []probeCell{{"BASE", "BASE", consistency.SC, 0}}
	for _, arch := range []string{"SSBR", "SS"} {
		cells = append(cells, probeCell{"RC-" + arch, arch, consistency.RC, 0})
	}
	for _, w := range exp.Windows {
		cells = append(cells, probeCell{fmt.Sprintf("RC-DS%d", w), "DS", consistency.RC, w})
	}
	return cells
}

func replay(tr *trace.Trace, c probeCell, cp *critpath.Collector, tl *obs.Timeline) (cpu.Result, error) {
	cfg := cpu.Config{Model: c.model, Window: c.window, CritPath: cp, Timeline: tl}
	switch c.arch {
	case "BASE":
		return cpu.RunBaseObs(tr, cp, tl), nil
	case "SSBR":
		return cpu.RunSSBR(tr, cfg)
	case "SS":
		return cpu.RunSS(tr, cfg)
	}
	return cpu.RunDS(tr, cfg)
}

// reference replays cell c as the baseline of the probe replay that follows
// it, in a "bench" span, and returns the replay's nanoseconds.
func (d *runner) reference(tr *trace.Trace, c probeCell, cp *critpath.Collector) (float64, error) {
	var err error
	dur := d.do("bench", "reference "+archKey(c.arch, c.window), func() { _, err = replay(tr, c, cp, nil) })
	return float64(dur.Nanoseconds()), err
}

func (d *runner) probes(dir string) error {
	cells := probeCells()

	store, traces, _, err := d.openTraces(dir)
	if err != nil {
		return err
	}
	an := &exp.AnalyzeReport{}
	for i, app := range d.apps {
		aa := exp.AnalyzeApp{App: app}
		for _, c := range cells {
			ref, err := d.reference(traces[i], c, nil)
			if err != nil {
				return err
			}
			cp := critpath.NewCollector()
			var res cpu.Result
			key := archKey(c.arch, c.window)
			dur := d.do("cpu", "cpu.Run+critpath "+key, func() { res, err = replay(traces[i], c, cp, nil) })
			if err != nil {
				return fmt.Errorf("analyze %s %s: %w", app, c.label, err)
			}
			d.replayed(key, dur, res.Breakdown, res.Instructions)
			d.st.critNs += float64(dur.Nanoseconds())
			d.st.bareRefNs += ref
			aa.Cells = append(aa.Cells, exp.AnalyzeCell{Label: c.label, Arch: c.arch, Window: c.window,
				Breakdown: res.Breakdown, Instructions: res.Instructions, Attr: cp.Attribution()})
		}
		an.Apps = append(an.Apps, aa)
	}
	if err := d.render("analyze", an.Format, an); err != nil {
		return err
	}
	if err := d.closeStore(store); err != nil {
		return err
	}

	store, traces, _, err = d.openTraces(dir)
	if err != nil {
		return err
	}
	causeNames := make([]string, critpath.NumCauses)
	for _, c := range critpath.Causes() {
		causeNames[c] = c.String()
	}
	tlr := &exp.TimelineReport{Schema: exp.TimelineSchema}
	for i, app := range d.apps {
		ta := exp.TimelineApp{App: app}
		for _, c := range cells {
			ref, err := d.reference(traces[i], c, critpath.NewCollector())
			if err != nil {
				return err
			}
			cp := critpath.NewCollector()
			tl := obs.NewTimeline(timelineShift, timelineMaxPoints)
			tl.CauseNames = causeNames
			var res cpu.Result
			key := archKey(c.arch, c.window)
			dur := d.do("cpu", "cpu.Run+timeline "+key, func() { res, err = replay(traces[i], c, cp, tl) })
			if err != nil {
				return fmt.Errorf("timeline %s %s: %w", app, c.label, err)
			}
			d.replayed(key, dur, res.Breakdown, res.Instructions)
			d.st.tlNs += float64(dur.Nanoseconds())
			d.st.critRefNs += ref
			samples := tl.Samples()
			ta.Cells = append(ta.Cells, exp.TimelineCell{Label: c.label, Arch: c.arch, Window: c.window,
				Interval: tl.Interval(), TotalCycles: res.Breakdown.Total(), Instructions: res.Instructions,
				Samples: samples, Phases: exp.DetectPhases(samples)})
		}
		tlr.Apps = append(tlr.Apps, ta)
	}
	if err := d.render("timeline", tlr.Format, tlr); err != nil {
		return err
	}
	return d.closeStore(store)
}

// render formats a probe report as text (what hidelat prints) and JSON
// (what -analyze-json / -timeline-json write), inside one exp span.
func (d *runner) render(step string, text func() string, report any) error {
	var js []byte
	var err error
	d.do("exp", "exp.Format "+step, func() {
		_ = text()
		js, err = json.MarshalIndent(report, "", "  ")
	})
	if err != nil {
		return err
	}
	return d.writeFile(step+".json", js)
}

// metric is one per-layer figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// writeResults derives the per-layer metrics from the spans of the set-up
// and the workload (the reference replays are layer "bench" and stay out)
// and writes them with the spans.
func (d *runner) writeResults() error {
	spans := d.rec.Spans()
	self := span.SelfTimes(spans)
	busy := map[string]float64{}  // layer -> self seconds
	alloc := map[string]float64{} // layer -> MiB allocated inside the layer's spans
	var encNs, decNs, getNs, putNs, benchNs float64
	for i, s := range spans {
		if s.Layer == "bench" {
			benchNs += float64(s.Duration().Nanoseconds())
			continue
		}
		busy[s.Layer] += self[i].Seconds()
		if s.Layer != "exp" {
			alloc[s.Layer] += float64(s.Alloc) / (1 << 20)
		}
		ns := float64(s.Duration().Nanoseconds())
		switch {
		case strings.HasPrefix(s.Name, "trace.WriteTo"):
			encNs += ns
		case strings.HasPrefix(s.Name, "trace.ReadTrace"):
			decNs += ns
		case strings.HasPrefix(s.Name, "cache.Get"), s.Name == "exp.CellCacheGet":
			getNs += ns
		case strings.HasPrefix(s.Name, "cache.Put"), s.Name == "exp.CellCachePut":
			putNs += ns
		}
	}
	st := &d.st
	// The workload's own time: its root span less the reference replays
	// inside it and the recorder's cost.
	workNs := float64(spans[d.work].Duration().Nanoseconds()) - benchNs
	costNs := float64(d.workCost.Nanoseconds())
	m := map[string]metric{
		"tango.busy_s":              {busy["tango"], "s"},
		"tango.ns_per_instr":        {ratio(busy["tango"]*1e9, float64(st.tangoInstr)), "ns"},
		"tango.instr":               {float64(st.tangoInstr), "count"},
		"tango.alloc_mb":            {alloc["tango"], "MB"},
		"trace.encode_ns_per_event": {ratio(encNs, float64(st.encEvents)), "ns"},
		"trace.decode_ns_per_event": {ratio(decNs, float64(st.decEvents)), "ns"},
		"trace.bytes_per_event":     {ratio(float64(st.encBytes), float64(st.encEvents)), "bytes"},
		"cache.get_ms":              {getNs / 1e6, "ms"},
		"cache.put_ms":              {putNs / 1e6, "ms"},
		"cache.hits":                {float64(st.cacheHits), "count"},
		"cache.misses":              {float64(st.cacheMisses), "count"},
		"cache.hit_ratio":           {ratio(float64(st.cacheHits), float64(st.cacheHits+st.cacheMisses)), "ratio"},
		"cpu.busy_s":                {busy["cpu"], "s"},
		"cpu.instr":                 {float64(st.cpuInstr), "count"},
		"cpu.alloc_mb":              {alloc["cpu"], "MB"},
		"sim.cycles":                {float64(st.simCycles), "count"},
		"critpath.overhead_pct":     {overheadPct(st.critNs, st.bareRefNs), "%"},
		"timeline.overhead_pct":     {overheadPct(st.tlNs, st.critRefNs), "%"},
		"probe.busy_s":              {(st.critNs + st.tlNs) / 1e9, "s"},
		"exp.self_s":                {busy["exp"], "s"},
		"bench.trace_overhead_pct":  {overheadPct(workNs, workNs-costNs), "%"},
	}
	for _, key := range []string{"BASE", "SSBR", "SS", "DS16", "DS32", "DS64", "DS128", "DS256"} {
		m["cpu."+key+".ns_per_instr"] = metric{ratio(st.archNs[key], st.archInstr[key]), "ns"}
	}
	res := struct {
		WorkloadS float64           `json:"workload_s"`
		Metrics   map[string]metric `json:"metrics"`
	}{(workNs - costNs) / 1e9, m}
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := d.writeFile("layers.json", js); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(d.out, "spans.json"))
	if err != nil {
		return err
	}
	if err := span.Write(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadPct is how much longer with took than without, in percent; 0
// when there is nothing to compare.
func overheadPct(with, without float64) float64 {
	if without == 0 {
		return 0
	}
	return 100 * (with/without - 1)
}
