package cpu

// Streaming replay entry points. Every timing model consumes its trace
// strictly in program order, one event per decode slot, so the replay
// cores run against an eventSource — either a materialized []trace.Event
// or a trace.Cursor streaming chunk-resident events out of a file. The
// slice arm keeps the existing RunBase/RunSSBR/RunSS/RunDS signatures and
// cost (one predicted branch per fetch); the cursor arm gives the file
// tools zero-copy replay: no whole-trace materialization, no per-event
// allocation, the same Results byte for byte.

import (
	"fmt"
	"io"

	"dynsched/internal/trace"
)

// eventSource is the replay cores' view of a trace's instruction stream:
// sequential fetch of each event exactly once, plus the metadata the
// models need. It is a concrete struct, not an interface, so the hot
// decode loops pay a nil check instead of dynamic dispatch.
type eventSource struct {
	events []trace.Event // materialized arm (used when cur is nil)
	cur    *trace.Cursor // streaming arm
	n      int           // total events
	next   int           // next index to fetch
}

func sliceSource(tr *trace.Trace) eventSource {
	return eventSource{events: tr.Events, n: len(tr.Events)}
}

func cursorSource(c *trace.Cursor) eventSource {
	return eventSource{cur: c, n: c.Len()}
}

// fetch returns the next event in program order. The caller must not fetch
// past n events. For the cursor arm the returned pointer obeys the cursor's
// lookback contract (valid for the next trace.CursorLookback fetches); the
// replay cores never hold an event pointer longer than their window, and
// the streaming entry points reject windows beyond the lookback.
func (s *eventSource) fetch() (*trace.Event, error) {
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

// checkStreamWindow rejects streaming configurations whose lookahead
// window exceeds the cursor's pointer-retention guarantee.
func checkStreamWindow(window int) error {
	if window > trace.CursorLookback {
		return fmt.Errorf("cpu: window %d exceeds streaming lookback %d; materialize the trace with ReadTrace instead",
			window, trace.CursorLookback)
	}
	return nil
}

// runStream replays c through run, then reads the cursor to its end: the
// models fetch exactly the declared events, and only the read past the
// last one verifies the whole-file checksum and that nothing follows the
// footer. A streaming replay therefore rejects what ReadTrace rejects.
func runStream(c *trace.Cursor, run func(*eventSource) (Result, error)) (Result, error) {
	src := cursorSource(c)
	res, err := run(&src)
	if err != nil {
		return res, err
	}
	if _, err := c.Next(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("replay stopped at event %d of %d", src.next, src.n)
		}
		return Result{}, fmt.Errorf("cpu: trace stream end: %w", err)
	}
	return res, nil
}

// RunBaseStream replays a streaming trace through the BASE processor. Of
// cfg it reads only the observability hooks (Metrics, CritPath, Timeline).
// A decode or integrity error from the stream aborts the replay.
func RunBaseStream(c *trace.Cursor, cfg Config) (Result, error) {
	return runStream(c, func(src *eventSource) (Result, error) { return runBase(src, cfg) })
}

// RunSSBRStream replays a streaming trace through the statically
// scheduled, blocking-read processor.
func RunSSBRStream(c *trace.Cursor, cfg Config) (Result, error) {
	return runStream(c, func(src *eventSource) (Result, error) { return runStatic(src, cfg, false) })
}

// RunSSStream replays a streaming trace through the statically scheduled,
// non-blocking-read processor.
func RunSSStream(c *trace.Cursor, cfg Config) (Result, error) {
	return runStream(c, func(src *eventSource) (Result, error) { return runStatic(src, cfg, true) })
}

// RunDSStream replays a streaming trace through the dynamically scheduled
// processor. The window must not exceed trace.CursorLookback (4096; the
// paper's largest is 256), because reorder-buffer entries hold pointers
// into the cursor's event ring.
func RunDSStream(c *trace.Cursor, cfg Config) (Result, error) {
	if err := checkStreamWindow(cfg.withDefaults().Window); err != nil {
		return Result{}, err
	}
	return runStream(c, func(src *eventSource) (Result, error) { return runDS(src, cfg) })
}
