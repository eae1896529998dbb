package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzReadTrace throws arbitrary bytes at the deserializer. ReadTrace must
// never panic or allocate unboundedly, and anything it accepts must be a
// valid trace that survives a re-serialization round trip. The three
// readers must reach one verdict: Cursor accepts exactly what ReadTrace
// accepts, with the same events, and Stat on an accepted input finds every
// checksum intact and accounts for every byte.
func FuzzReadTrace(f *testing.F) {
	// Seed corpus: a valid trace, a header bit flip only the footer CRC
	// catches, an implausible chunk header, a multi-chunk trace,
	// truncations at every structural boundary including the chunk header
	// and mid-payload, a bit flip in the chunk payload, trailing junk, a
	// corrupted footer, a bogus magic, a header claiming 2^34 events, and
	// two traces concatenated.
	valid := encode(f, miniTrace())
	f.Add(valid)

	headerFlip := append([]byte(nil), valid...)
	headerFlip[8] ^= 0x01
	f.Add(headerFlip)

	badChunk := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badChunk[hdrEnd+4:], 1)
	f.Add(badChunk)

	f.Add(encode(f, syntheticTrace(chunkEvents+64)))

	for _, cut := range []int{0, 3, 10, 24, 30, hdrEnd, hdrEnd + chunkHdrSize,
		hdrEnd + chunkHdrSize + 7, len(valid) - footerSize, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Add(append(append([]byte(nil), valid...), "junk"...))

	badFoot := append([]byte(nil), valid...)
	badFoot[len(badFoot)-1] ^= 0xFF
	f.Add(badFoot)

	f.Add([]byte("NOPE0000000000000000000000000000"))

	huge := append([]byte(nil), valid[:24+len("mini")]...)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], 1<<34)
	huge = append(huge, cnt[:]...)
	f.Add(huge)

	// Cursor-targeted seeds: a chunk whose declared event count straddles
	// the ring-lookback boundary, and a stream whose last chunk is torn
	// exactly at the footer so only the streaming footer check can notice.
	big := encode(f, syntheticTrace(2*chunkEvents+137))
	f.Add(big)
	f.Add(append([]byte(nil), big[:len(big)-footerSize-1]...))

	f.Add(append(append([]byte(nil), valid...), valid...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		ctr, cerr := cursorScan(data)
		// The streaming and materializing readers must agree on
		// acceptance: both reject, or both accept with identical events.
		if (err == nil) != (cerr == nil) {
			t.Fatalf("readers disagree: ReadTrace err=%v, Cursor err=%v", err, cerr)
		}
		if err != nil {
			return
		}
		if ctr.App != tr.App || ctr.CPU != tr.CPU || ctr.NumCPUs != tr.NumCPUs ||
			ctr.MissPenalty != tr.MissPenalty || len(ctr.Events) != len(tr.Events) {
			t.Fatal("cursor metadata or event count differs from ReadTrace")
		}
		for i := range tr.Events {
			if tr.Events[i] != ctr.Events[i] {
				t.Fatalf("cursor event %d differs from ReadTrace", i)
			}
		}
		s, serr := Stat(bytes.NewReader(data))
		if serr != nil || s.Chunks != s.ChunksOK || !s.FooterOK ||
			s.Events != uint64(len(tr.Events)) || s.FileBytes != uint64(len(data)) {
			t.Fatalf("Stat disagrees with ReadTrace on a %d-byte input: %+v, err %v", len(data), s, serr)
		}
		// Accepted traces must be internally consistent and round-trip.
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadTrace accepted an invalid trace: %v", err)
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatalf("re-serialization failed: %v", err)
		}
		if _, err := ReadTrace(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-serialized trace rejected: %v", err)
		}
	})
}

// cursorScan streams data through a Cursor, materializing what it accepts,
// so the fuzzer can compare the two readers byte-for-byte.
func cursorScan(data []byte) (*Trace, error) {
	c, err := NewCursor(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	m := c.Meta()
	tr := &Trace{App: m.App, CPU: m.CPU, NumCPUs: m.NumCPUs, MissPenalty: m.MissPenalty}
	for {
		e, err := c.Next()
		if err != nil {
			if err == io.EOF && len(tr.Events) == c.Len() {
				return tr, nil
			}
			return nil, err
		}
		tr.Events = append(tr.Events, *e)
	}
}
