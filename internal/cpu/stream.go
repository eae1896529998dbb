package cpu

// The replay entry point. Every timing model consumes its trace strictly
// in program order, one event per decode slot, so the three replay cores
// (runBase, runStatic, runDS) run against a Source — either a materialized
// []trace.Event or a trace.Cursor streaming chunk-resident events out of a
// file — and Replay is the one place that picks a core for an
// architecture. The slice arm costs one predicted branch per fetch; the
// cursor arm gives the file tools zero-copy replay: no whole-trace
// materialization, no per-event allocation, the same Results byte for byte.

import (
	"fmt"
	"io"

	"dynsched/internal/trace"
)

// Arch names one of the four processor models of §4.1 (Figure 3).
type Arch string

// The four processor architectures.
const (
	ArchBase Arch = "BASE" // fully serial in-order execution
	ArchSSBR Arch = "SSBR" // static scheduling, blocking reads, write buffer
	ArchSS   Arch = "SS"   // static scheduling, non-blocking reads
	ArchDS   Arch = "DS"   // dynamic scheduling (reorder buffer, renaming, BTB)
)

// Archs lists the architectures in Figure 3's order.
var Archs = []Arch{ArchBase, ArchSSBR, ArchSS, ArchDS}

// ParseArch returns the architecture whose name is exactly s.
func ParseArch(s string) (Arch, error) {
	for _, a := range Archs {
		if string(a) == s {
			return a, nil
		}
	}
	return "", fmt.Errorf("cpu: unknown architecture %q", s)
}

// Source is the replay cores' view of a trace's instruction stream:
// sequential fetch of each event exactly once, plus the metadata the
// models need. It is a concrete struct, not an interface, so the hot
// decode loops pay a nil check instead of dynamic dispatch. Build one with
// TraceSource or CursorSource.
type Source struct {
	events []trace.Event // materialized arm (used when cur is nil)
	cur    *trace.Cursor // streaming arm
	n      int           // total events
	next   int           // next index to fetch
}

// TraceSource replays a materialized trace.
func TraceSource(tr *trace.Trace) Source {
	return Source{events: tr.Events, n: len(tr.Events)}
}

// CursorSource streams a trace file through c. A replay consumes the
// cursor: replaying it twice needs a second cursor.
func CursorSource(c *trace.Cursor) Source {
	return Source{cur: c, n: c.Len()}
}

// fetch returns the next event in program order. The caller must not fetch
// past n events. For the cursor arm the returned pointer obeys the cursor's
// lookback contract (valid for the next trace.CursorLookback fetches); the
// replay cores never hold an event pointer longer than their window, and
// Replay rejects streaming windows beyond the lookback.
func (s *Source) fetch() (*trace.Event, error) {
	if s.cur == nil {
		e := &s.events[s.next]
		s.next++
		return e, nil
	}
	s.next++
	e, err := s.cur.Next()
	if err != nil {
		return nil, fmt.Errorf("cpu: trace stream at event %d: %w", s.next-1, err)
	}
	return e, nil
}

// Replay runs src through the arch processor model. Zero fields of cfg take
// their defaults, and the completed Config is validated for every
// architecture, although BASE reads only the observability hooks. Over a
// cursor a DS window must not exceed trace.CursorLookback (4096; the
// paper's largest is 256), because reorder-buffer entries hold pointers
// into the cursor's event ring, and after the replay the cursor is read to
// its end: the models fetch exactly the declared events, and only the read
// past the last one verifies the whole-file checksum and that nothing
// follows the footer. A streaming replay therefore rejects what ReadTrace
// rejects, and a decode or integrity error from the stream aborts it.
func Replay(arch Arch, src Source, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	var (
		res Result
		err error
	)
	switch arch {
	case ArchBase:
		res, err = runBase(&src, cfg)
	case ArchSSBR:
		res, err = runStatic(&src, cfg, false)
	case ArchSS:
		res, err = runStatic(&src, cfg, true)
	case ArchDS:
		if src.cur != nil && cfg.Window > trace.CursorLookback {
			return Result{}, fmt.Errorf("cpu: window %d exceeds streaming lookback %d; materialize the trace with ReadTrace instead",
				cfg.Window, trace.CursorLookback)
		}
		res, err = runDS(&src, cfg)
	default:
		return Result{}, fmt.Errorf("cpu: unknown architecture %q", arch)
	}
	if err != nil || src.cur == nil {
		return res, err
	}
	if _, err := src.cur.Next(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("replay stopped at event %d of %d", src.next, src.n)
		}
		return Result{}, fmt.Errorf("cpu: trace stream end: %w", err)
	}
	return res, nil
}
