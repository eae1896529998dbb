package trace

// Cursor is the streaming reader over serialized traces: it decodes one
// CRC-verified chunk at a time into a fixed ring of events and hands the
// replay loops pointers into that ring, so a multi-gigabyte trace replays
// in a constant few hundred kilobytes of memory — no whole-trace []Event
// materialization and no per-event allocation. It reads the container
// through the same header, chunk-frame and footer helpers as ReadTrace and
// applies the same checks: chunk plausibility bounds, per-chunk CRCs, the
// whole-file footer with nothing after it, and the per-event Validate
// invariants (checked incrementally through the shared validateEvent
// helper, plus the NextPC→PC linkage against each event's predecessor).
//
// Pointer lifetime: the ring holds 2× the maximum decode batch, and slots
// are only overwritten when the consumer has drained everything decoded so
// far, so a pointer returned by Next for event k stays valid at least
// until event k+CursorLookback has been returned. That window (4096
// events) comfortably covers the deepest lookahead structure any replay
// model keeps live (the paper's largest window is 256 entries); streaming
// entry points in package cpu reject configurations that would need more.

import (
	"bufio"
	"io"
)

// CursorLookback is the guaranteed pointer-retention window of a Cursor:
// an *Event returned by Next remains valid until CursorLookback further
// events have been returned.
const CursorLookback = chunkEvents

// cursorRing is the ring capacity in events: lookback plus the largest
// batch a single fill can decode (a full chunk). Power of two so slot
// indexing is a mask.
const cursorRing = 2 * chunkEvents

// Cursor streams events from a serialized trace. Create one with
// NewCursor, then call Next until it returns io.EOF; a clean EOF means the
// whole container, footer checksum included, was verified.
type Cursor struct {
	br    *bufio.Reader
	sum   uint32 // running whole-file CRC (crc32.Update)
	meta  Meta
	count uint64

	ring    [cursorRing]Event
	pos     uint64 // events handed out via Next
	decoded uint64 // events decoded into the ring

	buf   []byte  // chunk payload
	spill []Event // decode scratch when a batch wraps the ring edge

	lastNextPC int32 // NextPC of event decoded-1, for linkage validation
	done       bool  // footer verified, stream cleanly finished
	err        error // sticky failure
}

// NewCursor parses the trace header from r and returns a streaming cursor
// over its events. The reader is consumed incrementally; it must remain
// valid for the cursor's lifetime.
func NewCursor(r io.Reader) (*Cursor, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	c := &Cursor{br: br}
	meta, count, err := readHeader(br, &c.sum)
	if err != nil {
		return nil, err
	}
	c.meta, c.count = meta, count
	return c, nil
}

// Meta returns the generation metadata from the trace header.
func (c *Cursor) Meta() Meta { return c.meta }

// Len returns the header-declared event count.
func (c *Cursor) Len() int { return int(c.count) }

// Next returns the next event, or io.EOF after the last event once the
// container's integrity checks have all passed. The returned pointer stays
// valid for the next CursorLookback calls; the event must not be modified.
func (c *Cursor) Next() (*Event, error) {
	if c.pos == c.decoded {
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	e := &c.ring[c.pos&(cursorRing-1)]
	c.pos++
	return e, nil
}

// fill decodes the next CRC-verified chunk into the ring. At the end of
// the stream it verifies the footer and returns io.EOF.
func (c *Cursor) fill() error {
	if c.err != nil {
		return c.err
	}
	if c.done {
		return io.EOF
	}
	if c.decoded == c.count {
		if err := checkFooter(c.br, c.sum); err != nil {
			c.err = err
			return err
		}
		c.done = true
		return io.EOF
	}
	n, err := c.fillChunk()
	if err == nil {
		err = c.validateBatch(n)
	}
	if err != nil {
		c.err = err
		return err
	}
	c.decoded += uint64(n)
	return nil
}

// fillChunk reads one chunk and decodes it into the next ring slots. A
// chunk that straddles the ring edge is decoded into the spill scratch and
// then copied into its wrapped slots.
func (c *Cursor) fillChunk() (int, error) {
	payload, n, err := readChunk(c.br, &c.sum, &c.buf, c.decoded, c.count)
	if err != nil {
		return 0, err
	}
	off := int(c.decoded & (cursorRing - 1))
	if off+n <= cursorRing {
		return n, decodeChunkV3(payload, c.ring[off:off+n])
	}
	if c.spill == nil {
		c.spill = make([]Event, chunkEvents)
	}
	batch := c.spill[:n]
	if err := decodeChunkV3(payload, batch); err != nil {
		return 0, err
	}
	head := cursorRing - off
	copy(c.ring[off:], batch[:head])
	copy(c.ring[:], batch[head:])
	return n, nil
}

// validateBatch applies the per-event Validate invariants and the NextPC
// linkage check to the n just-decoded events.
func (c *Cursor) validateBatch(n int) error {
	for i := 0; i < n; i++ {
		abs := c.decoded + uint64(i)
		e := &c.ring[abs&(cursorRing-1)]
		if abs > 0 && e.PC != c.lastNextPC {
			return errBrokenLink(c.meta.App, abs-1, c.lastNextPC, e.PC)
		}
		if err := validateEvent(c.meta.App, int(abs), e, c.meta.MissPenalty); err != nil {
			return err
		}
		c.lastNextPC = e.NextPC
	}
	return nil
}
