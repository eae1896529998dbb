package exp

// Cell specifications. CellSpec is the one cell type of the harness: a
// closed, JSON-encodable description of a replay configuration that covers
// every sweep — the figure matrices, the window sweeps, the ablations and
// the attribution probes. Because a spec is plain data it has a stable
// identity, so every spec-built cell can be cached (cellKey), and the
// replay builds its own predictor from the spec, so no two cells ever
// share mutable state.

import (
	"fmt"

	"dynsched/internal/bpred"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/critpath"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

// CellSpec names one replay cell of a figure or sweep in closed form: the
// architecture, consistency model, window, and the handful of named knobs
// the paper's experiments use. The zero value of each knob means "leave the
// default", so a spec round-trips through JSON without loss, and a knob
// left at zero is omitted from the encoding — adding a knob never changes
// the cellKey of a spec that does not use it.
type CellSpec struct {
	Label          string `json:"label"`
	Arch           string `json:"arch"`  // "BASE", "SSBR", "SS", "DS"
	Model          string `json:"model"` // "SC", "PC", "WO", "RC"
	Window         int    `json:"window,omitempty"`
	IssueWidth     int    `json:"issue_width,omitempty"`
	Prefetch       bool   `json:"prefetch,omitempty"`
	PerfectBP      bool   `json:"perfect_bp,omitempty"`
	IgnoreDataDeps bool   `json:"ignore_data_deps,omitempty"`
	StoreBufDepth  int    `json:"store_buf_depth,omitempty"` // 0 = cpu default
	MSHRs          int    `json:"mshrs,omitempty"`           // 0 = unlimited
	BTBEntries     int    `json:"btb_entries,omitempty"`     // 4-way BTB; 0 = paper BTB
}

// maxSpecSize bounds the size knobs of a spec, so a corrupt value cannot
// make a replay allocate without limit. The window takes the replay's own
// bound, cpu.MaxWindow.
const maxSpecSize = 1 << 20

// Validate rejects specs that could not have come from a spec constructor.
// Every replay and SpecColumn call it before trusting a spec.
func (s CellSpec) Validate() error {
	if _, err := cpu.ParseArch(s.Arch); err != nil {
		return fmt.Errorf("exp: spec %q: %w", s.Label, err)
	}
	if _, err := consistency.ParseModel(s.Model); err != nil {
		return fmt.Errorf("exp: spec %q: %w", s.Label, err)
	}
	for _, k := range []struct {
		name   string
		v, max int
	}{
		{"window", s.Window, cpu.MaxWindow},
		{"issue width", s.IssueWidth, 64},
		{"store buffer depth", s.StoreBufDepth, maxSpecSize},
		{"MSHR count", s.MSHRs, maxSpecSize},
		{"BTB size", s.BTBEntries, maxSpecSize},
	} {
		if k.v < 0 || k.v > k.max {
			return fmt.Errorf("exp: spec %q: %s %d out of range", s.Label, k.name, k.v)
		}
	}
	if s.BTBEntries != 0 {
		if err := bpred.CheckGeometry(s.BTBEntries, 4); err != nil {
			return fmt.Errorf("exp: spec %q: %w", s.Label, err)
		}
	}
	return nil
}

// column is the spec's identity as a figure column, numbers still zero.
func (s CellSpec) column() Column {
	m, _ := consistency.ParseModel(s.Model)
	return Column{Label: s.Label, Model: m, Arch: s.Arch, Window: s.Window}
}

// probe selects the instruments the matrix driver attaches to each replay.
// There are two sets: none (noProbe, the plain cells), or a
// critpath.Collector and an interval sampler per attempt, which every
// probe replay attaches. A probe is named by its sweep ("analyze" or
// "timeline"), but the name only labels the cells' fault sites and board
// jobs: both sweeps replay the same instruments and so share one cached
// probe entry per cell.
type probe string

const noProbe probe = ""

// cellOutcome is one replayed cell: the numbers every sweep reports, plus
// what the probe's instruments measured when the cell was probed. It is
// also the JSON payload of a cached probe entry.
type cellOutcome struct {
	cellResult
	Attr     critpath.Attribution `json:"attribution"`
	Interval uint64               `json:"interval_cycles"`
	Samples  []obs.TimelineSample `json:"samples"`
}

// replay runs one attempt of the cell over tr with fresh probe
// instruments — a retried cell must not accumulate a failed attempt's
// partial charges. The predictor is built here too, so concurrent replays
// never share predictor state. name registers a probe's sampler with the
// live hub.
func (s CellSpec) replay(tr *trace.Trace, o *Options, p probe, name string) (cellOutcome, error) {
	if err := s.Validate(); err != nil {
		return cellOutcome{}, err
	}
	m, _ := consistency.ParseModel(s.Model)
	cfg := cpu.Config{
		Model: m, Window: s.Window, IssueWidth: s.IssueWidth, Prefetch: s.Prefetch,
		IgnoreDataDeps: s.IgnoreDataDeps, StoreBufDepth: s.StoreBufDepth, MSHRs: s.MSHRs,
		Ctx: o.Ctx, NoTimeSkip: o.NoTimeSkip,
	}
	switch {
	case s.PerfectBP:
		cfg.Predictor = bpred.Perfect{}
	case s.BTBEntries != 0:
		btb, err := bpred.NewBTB(s.BTBEntries, 4)
		if err != nil {
			return cellOutcome{}, err
		}
		cfg.Predictor = btb
	}
	if p != noProbe {
		cfg.CritPath = critpath.NewCollector()
		cfg.Timeline = obs.NewTimeline(timelineShift, timelineMaxPoints)
		cfg.Timeline.CauseNames = timelineCauseNames()
		o.Timelines.Register(name, cfg.Timeline)
	}
	res, err := cpu.Replay(cpu.Arch(s.Arch), cpu.TraceSource(tr), cfg)
	if err != nil {
		return cellOutcome{}, err
	}
	out := cellOutcome{cellResult: cellResult{Breakdown: res.Breakdown, Instructions: res.Instructions}}
	if p != noProbe {
		out.Attr = cfg.CritPath.Attribution()
		out.Interval, out.Samples = cfg.Timeline.Interval(), cfg.Timeline.Samples()
	}
	return out, nil
}

// Figure3Specs is the §4.1 processor/model matrix in serializable form:
// BASE; SSBR, SS, and DS-256 under SC and PC; SSBR, SS, and the full window
// sweep under RC.
func Figure3Specs() []CellSpec {
	specs := []CellSpec{{Label: "BASE", Arch: "BASE", Model: "SC"}}
	for _, m := range []consistency.Model{consistency.SC, consistency.PC} {
		for _, arch := range []string{"SSBR", "SS"} {
			specs = append(specs, CellSpec{Label: fmt.Sprintf("%s-%s", m, arch), Arch: arch, Model: m.String()})
		}
		specs = append(specs, CellSpec{Label: fmt.Sprintf("%s-DS256", m), Arch: "DS", Model: m.String(), Window: 256})
	}
	for _, arch := range []string{"SSBR", "SS"} {
		specs = append(specs, CellSpec{Label: fmt.Sprintf("RC-%s", arch), Arch: arch, Model: "RC"})
	}
	for _, w := range Windows {
		specs = append(specs, CellSpec{Label: fmt.Sprintf("RC-DS%d", w), Arch: "DS", Model: "RC", Window: w})
	}
	return specs
}

// Figure4Specs is the §4.1.3 isolation experiment under RC: the window sweep
// with perfect branch prediction, then with perfect prediction and ignored
// data dependences. BASE is included as the reference column.
func Figure4Specs() []CellSpec {
	specs := []CellSpec{{Label: "BASE", Arch: "BASE", Model: "SC"}}
	for _, noDeps := range []bool{false, true} {
		for _, w := range Windows {
			label := fmt.Sprintf("PBP-%d", w)
			if noDeps {
				label = fmt.Sprintf("PBP+ND-%d", w)
			}
			specs = append(specs, CellSpec{
				Label: label, Arch: "DS", Model: "RC", Window: w,
				PerfectBP: true, IgnoreDataDeps: noDeps,
			})
		}
	}
	return specs
}

// WindowSweepSpecs is the plain DS window sweep under a model with BASE as
// the reference column (the latency-100 and weak-ordering experiments).
func WindowSweepSpecs(model consistency.Model) []CellSpec {
	specs := []CellSpec{{Label: "BASE", Arch: "BASE", Model: "SC"}}
	for _, w := range Windows {
		specs = append(specs, CellSpec{
			Label: fmt.Sprintf("%s-DS%d", model, w), Arch: "DS", Model: model.String(), Window: w,
		})
	}
	return specs
}

// Issue4Specs is the §4.2 multiple-issue experiment: the RC window sweep at
// a decode/issue width of four.
func Issue4Specs() []CellSpec {
	specs := WindowSweepSpecs(consistency.RC)
	for i := range specs {
		if specs[i].Arch == "DS" {
			specs[i].IssueWidth = 4
		}
	}
	return specs
}

// SCPrefetchSpecs is the non-binding-prefetch extension: the SC window sweep
// with the prefetcher enabled.
func SCPrefetchSpecs() []CellSpec {
	specs := WindowSweepSpecs(consistency.SC)
	for i := range specs {
		if specs[i].Arch == "DS" {
			specs[i].Prefetch = true
		}
	}
	return specs
}

// analyzeSpecs is the attribution matrix of the analyze and timeline
// probes: the Figure 3 cells under RC plus the BASE reference — the two
// static models and the full DS window sweep, along which the paper's
// conclusion (memory-latency-bound at small windows, branch-prediction-
// bound at large ones) must show up.
func analyzeSpecs() []CellSpec {
	var specs []CellSpec
	for _, s := range Figure3Specs() {
		if s.Arch == "BASE" || s.Model == "RC" {
			specs = append(specs, s)
		}
	}
	return specs
}

// ablationSpecs is an ablation sweep: BASE as the reference, then one RC
// DS cell per value of a knob at a fixed window.
func ablationSpecs(window int, values []int, set func(s *CellSpec, v int)) []CellSpec {
	specs := []CellSpec{{Label: "BASE", Arch: "BASE", Model: "SC"}}
	for _, v := range values {
		s := CellSpec{Arch: "DS", Model: "RC", Window: window}
		set(&s, v)
		specs = append(specs, s)
	}
	return specs
}

// storeBufferSpecs sweeps the DS store-buffer depth under RC at window 64.
func storeBufferSpecs() []CellSpec {
	return ablationSpecs(64, []int{1, 2, 4, 8, 16, 32}, func(s *CellSpec, v int) {
		s.Label, s.StoreBufDepth = fmt.Sprintf("SB%d", v), v
	})
}

// mshrSpecs sweeps the number of outstanding misses under RC at window 64;
// the last cell is unlimited.
func mshrSpecs() []CellSpec {
	return ablationSpecs(64, []int{1, 2, 4, 8, 16, 0}, func(s *CellSpec, v int) {
		s.Label, s.MSHRs = fmt.Sprintf("MSHR%d", v), v
		if v == 0 {
			s.Label = "MSHRinf"
		}
	})
}

// btbSpecs sweeps the 4-way BTB size under RC at window 128.
func btbSpecs() []CellSpec {
	return ablationSpecs(128, []int{64, 256, 1024, 2048, 8192}, func(s *CellSpec, v int) {
		s.Label, s.BTBEntries = fmt.Sprintf("BTB%d", v), v
	})
}

// RunSpec replays one cell spec over tr outside a sweep — the entry point
// of perfbench's per-layer timing. Replay is a pure function of the trace
// and the spec (the harness options contribute only cancellation and the
// time-skip toggle, neither of which changes results), so the returned
// column is byte-identical to the same cell of a sweep.
func RunSpec(tr *trace.Trace, spec CellSpec, o *Options) (Column, error) {
	if o == nil {
		o = new(Options)
	}
	out, err := spec.replay(tr, o, noProbe, "")
	if err != nil {
		return Column{}, err
	}
	col := spec.column()
	col.Breakdown, col.Instructions = out.Breakdown, out.Instructions
	return col, nil
}

// SpecColumn reconstructs a successful cell's column from the spec identity
// plus the replayed numbers, as a cache hit does.
func SpecColumn(spec CellSpec, b cpu.Breakdown, instructions uint64) (Column, error) {
	if err := spec.Validate(); err != nil {
		return Column{}, err
	}
	col := spec.column()
	col.Breakdown, col.Instructions = b, instructions
	return col, nil
}

// NormalizeColumns fills the Normalized and ReadHidden fields of a finished
// column set against cols[0] (the BASE reference), exactly as the sweep
// driver does.
func NormalizeColumns(cols []Column) { normalize(cols) }
