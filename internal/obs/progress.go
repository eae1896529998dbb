package obs

// Progress is the run-level ticker: each simulation publishes its absolute
// instruction and cycle counts into its own Lane (see lane.go), and a
// background goroutine periodically prints throughput (instructions/sec of
// wall time, simulated cycles/sec) and an ETA when a total is known, one row
// per live lane plus an aggregate total. A nil *Progress hands out nil
// lanes, which are no-ops, so the hot loops publish unconditionally.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress reports simulation throughput at a fixed wall-clock interval.
type Progress struct {
	out      io.Writer
	interval time.Duration

	instrs atomic.Uint64 // instructions of the retired lanes
	cycles atomic.Uint64 // simulated cycles of the retired lanes
	total  atomic.Uint64 // expected instructions of the retired lanes (0 = unknown)

	start     time.Time
	running   atomic.Bool
	mu        sync.Mutex
	lanes     []*Lane // live per-label rows; done lanes are folded into instrs/cycles
	stop      chan struct{}
	done      chan struct{}
	lastInstr uint64
	lastCycle uint64
	lastAt    time.Time
}

// NewProgress creates a ticker writing to w every interval (1s if
// interval <= 0). Call Start to begin reporting and Stop when done.
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = time.Second
	}
	return &Progress{out: w, interval: interval}
}

// Start launches the reporting goroutine. Safe on a nil receiver.
func (p *Progress) Start() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return // already running
	}
	p.start = time.Now()
	p.lastAt = p.start
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	p.running.Store(true)
	go p.run(p.stop, p.done)
}

// Stop halts the reporting goroutine and prints a final summary line.
// Safe on a nil receiver and when Start was never called.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	stop, done := p.stop, p.done
	p.stop, p.done = nil, nil
	p.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	p.report(true)
	p.running.Store(false)
}

func (p *Progress) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.report(false)
		}
	}
}

// takeLanes splits the registered lanes into live and freshly finished ones,
// folding the finished lanes' counts and totals into the aggregate counters.
// Called with p.mu held.
func (p *Progress) takeLanes() (live, finished []*Lane) {
	for _, l := range p.lanes {
		if l.done.Load() {
			finished = append(finished, l)
			p.instrs.Add(l.instrs.Load())
			p.cycles.Add(l.cycles.Load())
			p.total.Add(l.total.Load())
		} else {
			live = append(live, l)
		}
	}
	p.lanes = live
	return live, finished
}

// report prints one progress line per live lane plus an aggregate line.
// final switches the aggregate to the summary format.
func (p *Progress) report(final bool) {
	now := time.Now()

	p.mu.Lock()
	live, finished := p.takeLanes()
	dt := now.Sub(p.lastAt).Seconds()
	var laneInstrs, laneCycles, laneTotals uint64
	type laneRow struct {
		label                 string
		instrs, cycles, total uint64
		di, dc                uint64
	}
	rows := make([]laneRow, 0, len(live))
	for _, l := range live {
		li, lc := l.instrs.Load(), l.cycles.Load()
		rows = append(rows, laneRow{
			label: l.label, instrs: li, cycles: lc, total: l.total.Load(),
			di: li - l.lastInstr, dc: lc - l.lastCycle,
		})
		l.lastInstr, l.lastCycle = li, lc
		laneInstrs += li
		laneCycles += lc
		laneTotals += l.total.Load()
	}
	instrs := p.instrs.Load() + laneInstrs
	cycles := p.cycles.Load() + laneCycles
	di, dc := instrs-p.lastInstr, cycles-p.lastCycle
	p.lastAt, p.lastInstr, p.lastCycle = now, instrs, cycles
	p.mu.Unlock()

	elapsed := now.Sub(p.start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}

	for _, l := range finished {
		fmt.Fprintf(p.out, "progress [%s] done: %s instrs, %s sim cycles\n",
			l.label, siCount(l.instrs.Load()), siCount(l.cycles.Load()))
	}
	if !final {
		for _, r := range rows {
			line := fmt.Sprintf("progress [%s] %s instrs (%s/s), %s sim cycles (%s/s)",
				r.label, siCount(r.instrs), siCount(rate(r.di, dt)),
				siCount(r.cycles), siCount(rate(r.dc, dt)))
			if r.total > 0 && r.instrs > 0 && r.instrs < r.total {
				remain := float64(r.total-r.instrs) / (float64(r.instrs) / elapsed)
				line += fmt.Sprintf(", ETA %s", time.Duration(remain*float64(time.Second)).Round(time.Second))
			}
			fmt.Fprintln(p.out, line)
		}
	}

	// The aggregate line: skip it on intermediate ticks when a single live
	// lane already tells the whole story.
	if !final && len(rows) == 1 && p.instrs.Load() == 0 {
		return
	}
	ips, cps := rate(di, dt), rate(dc, dt)
	if final || dt <= 0 {
		ips, cps = uint64(float64(instrs)/elapsed), uint64(float64(cycles)/elapsed)
	}
	label := ""
	if len(rows) > 0 || len(finished) > 0 {
		label = " [total]"
	}
	line := fmt.Sprintf("progress%s: %s instrs (%s/s), %s sim cycles (%s/s)",
		label, siCount(instrs), siCount(ips), siCount(cycles), siCount(cps))
	total := p.total.Load() + laneTotals
	if total > 0 && instrs > 0 && instrs < total && !final {
		remain := float64(total-instrs) / (float64(instrs) / elapsed)
		line += fmt.Sprintf(", ETA %s", time.Duration(remain*float64(time.Second)).Round(time.Second))
	}
	if final {
		line += fmt.Sprintf(", wall %s", time.Duration(elapsed*float64(time.Second)).Round(time.Millisecond))
	}
	fmt.Fprintln(p.out, line)
}

// rate converts a delta over dt seconds into a per-second figure.
func rate(d uint64, dt float64) uint64 {
	if dt <= 0 {
		return 0
	}
	return uint64(float64(d) / dt)
}

// LaneStatus is one lane's state in a ProgressStatus.
type LaneStatus struct {
	Label       string `json:"label"`
	Instrs      uint64 `json:"instrs"`
	Cycles      uint64 `json:"cycles"`
	TotalInstrs uint64 `json:"total_instrs,omitempty"`
}

// ProgressStatus is a point-in-time view of a Progress ticker, served as
// JSON by the live server's /progress endpoint.
type ProgressStatus struct {
	Running        bool         `json:"running"`
	ElapsedSeconds float64      `json:"elapsed_seconds"`
	Instrs         uint64       `json:"instrs"`
	Cycles         uint64       `json:"cycles"`
	TotalInstrs    uint64       `json:"total_instrs,omitempty"`
	InstrsPerSec   float64      `json:"instrs_per_sec"`
	CyclesPerSec   float64      `json:"cycles_per_sec"`
	ETASeconds     float64      `json:"eta_seconds,omitempty"`
	Lanes          []LaneStatus `json:"lanes,omitempty"`
}

// Status reports the ticker's current aggregate and per-lane progress. The
// per-second rates are run-lifetime averages. Safe on a nil receiver.
func (p *Progress) Status() ProgressStatus {
	if p == nil {
		return ProgressStatus{}
	}
	st := ProgressStatus{Running: p.running.Load()}
	instrs, cycles, total := p.instrs.Load(), p.cycles.Load(), p.total.Load()

	p.mu.Lock()
	start := p.start
	for _, l := range p.lanes {
		li, lc, lt := l.instrs.Load(), l.cycles.Load(), l.total.Load()
		st.Lanes = append(st.Lanes, LaneStatus{Label: l.label, Instrs: li, Cycles: lc, TotalInstrs: lt})
		instrs += li
		cycles += lc
		total += lt
	}
	p.mu.Unlock()

	st.Instrs, st.Cycles, st.TotalInstrs = instrs, cycles, total
	if !start.IsZero() {
		st.ElapsedSeconds = time.Since(start).Seconds()
	}
	if st.ElapsedSeconds > 0 {
		st.InstrsPerSec = float64(instrs) / st.ElapsedSeconds
		st.CyclesPerSec = float64(cycles) / st.ElapsedSeconds
		if total > instrs && instrs > 0 {
			st.ETASeconds = float64(total-instrs) / st.InstrsPerSec
		}
	}
	return st
}

// siCount formats a count with a k/M/G suffix.
func siCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// PublishEvery is the recommended stride, in simulation steps, between
// Publish calls from hot loops: frequent enough for 1-second ticks, rare
// enough to be invisible in profiles.
const PublishEvery = 1 << 14
