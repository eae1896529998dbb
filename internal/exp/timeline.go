package exp

// The simulated-time telemetry sweep (`hidelat timeline`): the attribution
// cell matrix replayed with an interval Timeline sampler (and a critpath
// collector for per-interval fine-cause deltas) attached to every cell,
// producing per-cell time series of the stall mix, retire rate, and
// structure occupancy, segmented into execution phases by a change-point
// detector over the stall-mix vectors. The collection follows the ledger's
// determinism discipline — one sampler per cell, results merged by input
// index — so the report, JSON, and CSV are byte-identical at any worker
// count and skip-vs-noskip.

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"dynsched/internal/critpath"
	"dynsched/internal/obs"
)

const (
	// timelineShift is the replay cells' initial sampling interval (2^10 =
	// 1024 cycles); timelineMaxPoints bounds the series, decimating by
	// doubling the interval when full. 256 points cover a 256k-cycle run
	// at native granularity and any longer run at a power-of-two multiple.
	timelineShift     = 10
	timelineMaxPoints = 256
	// genTimelineShift is the coarser interval for multiprocessor trace
	// generations, whose simulated times run ~NumCPUs times longer.
	genTimelineShift = 12

	// phaseThreshold is the change-point trigger: the L1 distance (max 2.0)
	// between an interval's stall-mix vector and the running mean of the
	// current phase above which a new phase starts. 0.5 means roughly a
	// quarter of the interval's cycles moved between categories.
	phaseThreshold = 0.5
)

// TimelineSchema tags the timeline JSON export so `hidelat diff` can sniff
// the format.
const TimelineSchema = "dynsched-timeline/v1"

// TimelinePhase summarizes one detected execution phase: a maximal run of
// sampling intervals with a stable stall-mix vector.
type TimelinePhase struct {
	Index        int    `json:"index"`
	StartCycle   uint64 `json:"start_cycle"`
	EndCycle     uint64 `json:"end_cycle"`
	Intervals    int    `json:"intervals"`
	Instructions uint64 `json:"instructions"`
	// IPC is retired instructions per cycle over the phase; MCPI is memory
	// stall cycles (read+write) per instruction.
	IPC  float64 `json:"ipc"`
	MCPI float64 `json:"mcpi"`
	// DominantStall is the largest coarse stall category by cycles over
	// the phase ("busy" when no stall cycles were charged at all).
	DominantStall string `json:"dominant_stall"`
}

// TimelineCell is one replay cell's sampled series and detected phases.
type TimelineCell struct {
	Label        string               `json:"label"`
	Arch         string               `json:"arch"`
	Window       int                  `json:"window,omitempty"`
	Interval     uint64               `json:"interval_cycles"`
	TotalCycles  uint64               `json:"total_cycles"`
	Instructions uint64               `json:"instructions"`
	Samples      []obs.TimelineSample `json:"samples"`
	Phases       []TimelinePhase      `json:"phases"`

	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	Err    error  `json:"-"`
}

// TimelineApp is one application's cells, in fixed configuration order.
type TimelineApp struct {
	App   string         `json:"app"`
	Cells []TimelineCell `json:"cells"`
}

// TimelineReport is the full telemetry sweep: every configured application
// against the attribution cell matrix (BASE, RC-SSBR, RC-SS, RC-DS sweep).
type TimelineReport struct {
	Schema string        `json:"timeline_schema"`
	Apps   []TimelineApp `json:"apps"`
}

// timelineCauseNames names the indices of the per-interval fine-cause
// deltas in declaration order.
func timelineCauseNames() []string {
	names := make([]string, critpath.NumCauses)
	for _, c := range critpath.Causes() {
		names[c] = c.String()
	}
	return names
}

// TimelineAll replays the attribution matrix (analyzeSpecs) for every
// application through the matrix driver, each cell with its own sampler and
// collector, sharing AnalyzeAll's probe entries in the store. Failure
// containment is the driver's, as in AnalyzeAll.
func (e *Experiment) TimelineAll() (*TimelineReport, error) {
	acs, outs, err := runMatrix(&e.opts, e.Apps(), e.lazyRun, analyzeSpecs(), "timeline")
	if acs == nil {
		return nil, err
	}
	rep := &TimelineReport{Schema: TimelineSchema, Apps: make([]TimelineApp, len(acs))}
	for a, ac := range acs {
		cells := make([]TimelineCell, len(ac.Cols))
		for c, col := range ac.Cols {
			cells[c] = TimelineCell{Label: col.Label, Arch: col.Arch, Window: col.Window}
			if col.Failed {
				cells[c].Failed, cells[c].Err, cells[c].Error = true, col.Err, col.Err.Error()
				continue
			}
			out := outs[a][c]
			cells[c].Interval, cells[c].TotalCycles, cells[c].Instructions = out.Interval, col.Breakdown.Total(), col.Instructions
			cells[c].Samples = out.Samples
			cells[c].Phases = DetectPhases(cells[c].Samples)
		}
		rep.Apps[a] = TimelineApp{App: ac.App, Cells: cells}
	}
	return rep, err
}

// stallMix is an interval's normalized cycle distribution over the six
// coarse categories (fractions of the interval length, clamped at zero for
// the DS model's credit-pop negatives).
func stallMix(s obs.TimelineSample) [6]float64 {
	n := s.End - s.Start
	if n == 0 {
		return [6]float64{}
	}
	inv := 1 / float64(n)
	frac := func(v int64) float64 {
		if v <= 0 {
			return 0
		}
		return float64(v) * inv
	}
	return [6]float64{frac(s.Busy), frac(s.Sync), frac(s.Read), frac(s.Write), frac(s.Branch), frac(s.Other)}
}

// DetectPhases segments a sampled series into execution phases with a
// deterministic online change-point detector: each interval's stall-mix
// vector is compared (L1 distance) against the running mean of the current
// phase; a distance above phaseThreshold closes the phase and starts a new
// one. Exact and order-dependent only on the input series, so the
// segmentation is byte-stable wherever the series is.
func DetectPhases(samples []obs.TimelineSample) []TimelinePhase {
	if len(samples) == 0 {
		return nil
	}
	var phases []TimelinePhase
	var mean [6]float64
	var agg struct {
		start, end                             uint64
		intervals                              int
		instructions                           uint64
		busy, sync, read, write, branch, other int64
	}
	flush := func() {
		cycles := agg.end - agg.start
		p := TimelinePhase{
			Index:        len(phases) + 1,
			StartCycle:   agg.start,
			EndCycle:     agg.end,
			Intervals:    agg.intervals,
			Instructions: agg.instructions,
		}
		if cycles > 0 {
			p.IPC = float64(agg.instructions) / float64(cycles)
		}
		if agg.instructions > 0 {
			p.MCPI = float64(agg.read+agg.write) / float64(agg.instructions)
		}
		doms := []struct {
			name string
			n    int64
		}{{"sync", agg.sync}, {"read", agg.read}, {"write", agg.write}, {"branch", agg.branch}, {"other", agg.other}}
		p.DominantStall = "busy"
		var best int64
		for _, d := range doms {
			if d.n > best {
				best, p.DominantStall = d.n, d.name
			}
		}
		phases = append(phases, p)
	}
	for i, s := range samples {
		mix := stallMix(s)
		if i > 0 {
			var dist float64
			for k := range mix {
				d := mix[k] - mean[k]
				if d < 0 {
					d = -d
				}
				dist += d
			}
			if dist > phaseThreshold {
				flush()
				agg.start, agg.end = s.Start, s.Start
				agg.intervals, agg.instructions = 0, 0
				agg.busy, agg.sync, agg.read, agg.write, agg.branch, agg.other = 0, 0, 0, 0, 0, 0
				mean = [6]float64{}
			}
		}
		k := float64(agg.intervals)
		for j := range mean {
			mean[j] = (mean[j]*k + mix[j]) / (k + 1)
		}
		agg.end = s.End
		agg.intervals++
		agg.instructions += s.Instructions
		agg.busy += s.Busy
		agg.sync += s.Sync
		agg.read += s.Read
		agg.write += s.Write
		agg.branch += s.Branch
		agg.other += s.Other
	}
	flush()
	return phases
}

// phaseStarts returns the sample indices at which each phase after the
// first begins, for rendering boundary markers.
func phaseStarts(samples []obs.TimelineSample, phases []TimelinePhase) map[int]bool {
	starts := make(map[int]bool)
	for _, p := range phases[1:] {
		for i, s := range samples {
			if s.Start == p.StartCycle {
				starts[i] = true
				break
			}
		}
	}
	return starts
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals scaled against max as unicode block characters,
// inserting a '|' phase-boundary marker before each index in starts.
func sparkline(vals []float64, max float64, starts map[int]bool) string {
	var b strings.Builder
	for i, v := range vals {
		if starts[i] {
			b.WriteByte('|')
		}
		lvl := 0
		if max > 0 && v > 0 {
			lvl = int(v * 8 / max)
			if lvl > 7 {
				lvl = 7
			}
		}
		b.WriteRune(sparkLevels[lvl])
	}
	return b.String()
}

// Format renders the report as the text `hidelat timeline` prints: per
// app × cell, IPC and memory-stall-fraction sparklines with detected phase
// boundaries, then the per-phase summary table. Deterministic byte for
// byte (fixed-precision formatting of exact integer-derived values).
func (r *TimelineReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Interval timelines: per-interval IPC and memory-stall sparklines, phase boundaries marked '|'.\n")
	for _, app := range r.Apps {
		fmt.Fprintf(&b, "\n== %s ==\n", app.App)
		for _, cell := range app.Cells {
			if cell.Failed {
				fmt.Fprintf(&b, "\n%s FAILED: %s\n", cell.Label, cell.Error)
				continue
			}
			fmt.Fprintf(&b, "\n%s  [interval %d cycles, %d samples, %d phases, %d total cycles]\n",
				cell.Label, cell.Interval, len(cell.Samples), len(cell.Phases), cell.TotalCycles)
			ipc := make([]float64, len(cell.Samples))
			mem := make([]float64, len(cell.Samples))
			var maxIPC float64
			for i, s := range cell.Samples {
				ipc[i] = s.IPC
				if s.IPC > maxIPC {
					maxIPC = s.IPC
				}
				if n := s.End - s.Start; n > 0 {
					if rw := s.Read + s.Write; rw > 0 {
						mem[i] = float64(rw) / float64(n)
					}
				}
			}
			starts := phaseStarts(cell.Samples, cell.Phases)
			fmt.Fprintf(&b, "  ipc %s\n", sparkline(ipc, maxIPC, starts))
			fmt.Fprintf(&b, "  mem %s\n", sparkline(mem, 1, starts))
			tw := tabwriter.NewWriter(&b, 2, 0, 1, ' ', tabwriter.AlignRight)
			fmt.Fprint(tw, "  Phase\t|\tcycles\t|\tintervals\t|\tinstrs\t|\tIPC\t|\tMCPI\t|\tdominant\t\n")
			for _, p := range cell.Phases {
				fmt.Fprintf(tw, "  %d\t|\t%d-%d\t|\t%d\t|\t%d\t|\t%.3f\t|\t%.3f\t|\t%s\t\n",
					p.Index, p.StartCycle, p.EndCycle, p.Intervals, p.Instructions, p.IPC, p.MCPI, p.DominantStall)
			}
			tw.Flush()
		}
	}
	return b.String()
}

// CSV renders every sample as one row (app, cell, interval bounds, deltas,
// rates, occupancies, owning phase), the spreadsheet-side export.
func (r *TimelineReport) CSV() string {
	var b strings.Builder
	b.WriteString("app,label,start_cycle,end_cycle,instructions,busy,sync,read,write,branch,other,ipc,mcpi,avg_window,avg_storebuf,avg_mshr,phase\n")
	for _, app := range r.Apps {
		for _, cell := range app.Cells {
			if cell.Failed {
				continue
			}
			phase := 0
			for _, s := range cell.Samples {
				for phase < len(cell.Phases) && s.Start >= cell.Phases[phase].EndCycle {
					phase++
				}
				idx := phase + 1
				if phase >= len(cell.Phases) {
					idx = len(cell.Phases)
				}
				fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.3f,%.3f,%.3f,%d\n",
					app.App, cell.Label, s.Start, s.End, s.Instructions,
					s.Busy, s.Sync, s.Read, s.Write, s.Branch, s.Other,
					s.IPC, s.MCPI, s.AvgWindow, s.AvgStoreBuf, s.AvgMSHR, idx)
			}
		}
	}
	return b.String()
}

// RecordTimeline publishes the sweep's phase structure into reg under
// "timeline.<app>.<label>." — sample/phase counts and per-phase cycle and
// instruction counters (which land in the snapshot FNV checksum and the
// run ledger) plus per-phase IPC/MCPI gauges. Only the dedicated timeline
// step publishes these, so the fig3 ledger checksum is untouched. No-op
// with a nil registry.
func RecordTimeline(reg *obs.Registry, r *TimelineReport) {
	if reg == nil || r == nil {
		return
	}
	for _, app := range r.Apps {
		for _, c := range app.Cells {
			if c.Failed {
				continue
			}
			pre := fmt.Sprintf("timeline.%s.%s.", app.App, c.Label)
			reg.Counter(pre + "samples").Set(uint64(len(c.Samples)))
			reg.Counter(pre + "phases").Set(uint64(len(c.Phases)))
			reg.Counter(pre + "total_cycles").Set(c.TotalCycles)
			reg.Counter(pre + "interval_cycles").Set(c.Interval)
			for _, p := range c.Phases {
				ppre := fmt.Sprintf("%sphase%d.", pre, p.Index)
				reg.Counter(ppre + "cycles").Set(p.EndCycle - p.StartCycle)
				reg.Counter(ppre + "intervals").Set(uint64(p.Intervals))
				reg.Counter(ppre + "instructions").Set(p.Instructions)
				reg.Gauge(ppre + "ipc").Set(p.IPC)
				reg.Gauge(ppre + "mcpi").Set(p.MCPI)
			}
		}
	}
}
