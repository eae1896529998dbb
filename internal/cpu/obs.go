package cpu

// Metrics publication shared by the processor models. Each replay core
// calls publishResult when it finishes; the account publishes its
// occupancy histograms just before. Nothing is published while a replay
// runs, so a replay that fails publishes nothing.

import "dynsched/internal/obs"

// Histogram bucket bounds for the occupancy metrics. Occupancies are small
// integers, so power-of-two buckets up to the largest window give useful
// resolution everywhere.
var (
	occupancyBuckets = []uint64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	bufferBuckets    = []uint64{0, 1, 2, 4, 8, 16, 32}
	delayBuckets     = []uint64{0, 10, 20, 30, 40, 50, 100}
)

// publishResult registers a replay's aggregate outcome into
// cfg.Metrics under cfg.MetricsPrefix: the Figure 3 stall breakdown as
// counters plus instruction, mispredict, and prefetch totals, and the
// read-miss delay histogram. Safe with a nil registry.
func publishResult(cfg *Config, res Result) {
	reg, prefix := cfg.Metrics, cfg.MetricsPrefix
	if reg == nil {
		return
	}
	b := res.Breakdown
	set := func(name string, v uint64) { reg.Counter(obs.Prefixed(prefix, name)).Set(v) }
	set("cycles.total", b.Total())
	set("cycles.busy", b.Busy)
	set("stall.sync", b.Sync)
	set("stall.read", b.Read)
	set("stall.write", b.Write)
	set("stall.branch", b.Branch)
	set("stall.other", b.Other)
	set("instructions", res.Instructions)
	set("branch.mispredicts", res.Mispredicts)
	set("prefetches", res.Prefetches)
	reg.MergeHistogram(obs.Prefixed(prefix, "readmiss.issue_delay"), res.ReadMissDelay)
	if res.AvgOccupancy > 0 {
		reg.Gauge(obs.Prefixed(prefix, "rob.avg_occupancy")).Set(res.AvgOccupancy)
	}
	// Derived per-instruction rates under the names the run ledger and
	// regression diff track: cpi (total cycles per instruction) and mcpi
	// (memory stall cycles — read + write — per instruction, the paper's
	// latency-hiding figure of merit).
	if res.Instructions > 0 {
		n := float64(res.Instructions)
		reg.Gauge(obs.Prefixed(prefix, "cpi")).Set(float64(b.Total()) / n)
		reg.Gauge(obs.Prefixed(prefix, "mcpi")).Set(float64(b.Read+b.Write) / n)
	}
}
