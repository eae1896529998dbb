package cpu

// Per-architecture entry points kept only for perfbench/tracedrun, which
// changes only with the repository benchmark. Delete them in the next
// benchmark change, beside trace.Trace.Freeze.

import (
	"dynsched/internal/critpath"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

// RunBaseObs replays tr through BASE with the given probes.
//
// Deprecated: use Replay(ArchBase, TraceSource(tr), cfg); perfbench/tracedrun is the only caller.
func RunBaseObs(tr *trace.Trace, cp *critpath.Collector, tl *obs.Timeline) Result {
	res, _ := Replay(ArchBase, TraceSource(tr), Config{CritPath: cp, Timeline: tl}) // cannot fail
	return res
}

// RunSSBR replays tr through SSBR.
//
// Deprecated: use Replay(ArchSSBR, TraceSource(tr), cfg); perfbench/tracedrun is the only caller.
func RunSSBR(tr *trace.Trace, cfg Config) (Result, error) {
	return Replay(ArchSSBR, TraceSource(tr), cfg)
}

// RunSS replays tr through SS.
//
// Deprecated: use Replay(ArchSS, TraceSource(tr), cfg); perfbench/tracedrun is the only caller.
func RunSS(tr *trace.Trace, cfg Config) (Result, error) { return Replay(ArchSS, TraceSource(tr), cfg) }

// RunDS replays tr through DS.
//
// Deprecated: use Replay(ArchDS, TraceSource(tr), cfg); perfbench/tracedrun is the only caller.
func RunDS(tr *trace.Trace, cfg Config) (Result, error) { return Replay(ArchDS, TraceSource(tr), cfg) }
