package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynsched/internal/isa"
)

// syntheticTrace builds a Validate-clean trace of n events with the mix the
// v3 encoder is tuned for: straight-line ALU runs, strided loads and stores
// with occasional misses, immediates, and backward taken branches.
func syntheticTrace(n int) *Trace {
	t := &Trace{App: "synth", NumCPUs: 16, MissPenalty: 50}
	t.Events = make([]Event, 0, n)
	pc := int32(0)
	addr := uint64(1 << 20)
	for i := 0; i < n; i++ {
		var e Event
		e.PC = pc
		e.NextPC = pc + 1
		switch i % 7 {
		case 0, 1, 2:
			e.Instr = isa.Instr{Op: isa.OpAdd, Dst: uint8(1 + i%29), Src1: 2, Src2: 3}
		case 3:
			e.Instr = isa.Instr{Op: isa.OpLd, Dst: 4, Src1: 5}
			e.Addr = addr
			addr += 8
			if i%21 == 3 {
				e.Miss = true
				e.Latency = 50
			} else {
				e.Latency = 1
			}
		case 4:
			e.Instr = isa.Instr{Op: isa.OpSt, Src1: 4, Src2: 5}
			e.Addr = addr - 8
			e.Latency = 1
		case 5:
			e.Instr = isa.Instr{Op: isa.OpLi, Dst: 6, Imm: int64(i)}
		case 6:
			taken := i%28 == 6 && pc >= 6
			target := pc - 6
			e.Instr = isa.Instr{Op: isa.OpBnez, Src1: 6, Imm: int64(target)}
			e.Taken = taken
			if taken {
				e.NextPC = target
			}
		}
		pc = e.NextPC
		t.Events = append(t.Events, e)
	}
	return t
}

// encode serializes tr with WriteTo.
func encode(tb testing.TB, tr *Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hdrEnd is the byte offset of miniTrace's first chunk header.
const hdrEnd = 24 + len("mini") + 8

func TestTraceRoundTrip(t *testing.T) {
	orig := miniTrace()
	orig.App = "roundtrip"
	orig.CPU = 3
	orig.NumCPUs = 16
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != orig.App || got.CPU != orig.CPU || got.NumCPUs != orig.NumCPUs ||
		got.MissPenalty != orig.MissPenalty {
		t.Errorf("header mismatch: %+v vs %+v", got, orig)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Error("events did not survive the round trip")
	}
}

// TestTraceRoundTripMultiChunk pushes a trace across several chunk
// boundaries so the per-chunk delta-state reset is exercised, including a
// boundary that lands mid-way through an address run.
func TestTraceRoundTripMultiChunk(t *testing.T) {
	orig := syntheticTrace(2*chunkEvents + 137)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Error("multi-chunk events did not survive the round trip")
	}
}

// flatRecordSize is the 40-byte fixed record of the retired flat formats
// (versions 1 and 2), kept as the yardstick for the chunked encoding.
const flatRecordSize = 40

// TestV3SmallerThanV2 checks the point of the format: on a representative
// instruction mix the delta/varint encoding must save at least 30% over the
// flat 40-byte records it replaced.
func TestV3SmallerThanV2(t *testing.T) {
	tr := syntheticTrace(20000)
	v3 := len(encode(t, tr))
	flat := flatRecordSize * tr.Len()
	if float64(v3) > 0.7*float64(flat) {
		t.Errorf("v3 is %d bytes vs the flat %d (%.1f%%): want at least 30%% smaller",
			v3, flat, 100*float64(v3)/float64(flat))
	}
}

func TestReadTraceBadMagic(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("NOPE0000000000000000000000000000"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadTraceTruncated(t *testing.T) {
	full := encode(t, miniTrace())
	// Cuts land mid-header, mid-count, mid-chunk-header, mid-payload, and
	// just before the final footer byte.
	for _, cut := range []int{0, 3, 10, 30, hdrEnd + 4, hdrEnd + chunkHdrSize + 3, len(full) - 1} {
		if _, err := ReadTrace(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestReadTraceBadVersion covers the retired flat formats (1, 2) and a
// future version: each is rejected by name, by every reader.
func TestReadTraceBadVersion(t *testing.T) {
	orig := encode(t, miniTrace())
	for _, version := range []uint32{1, 2, 99} {
		b := append([]byte(nil), orig...)
		binary.LittleEndian.PutUint32(b[4:8], version)
		want := fmt.Sprintf("unsupported format version %d (only v3 is read)", version)
		for name, err := range readerErrors(b) {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: %s err = %v, want %q", version, name, err, want)
			}
		}
	}
}

// readerErrors runs all three readers over b and returns their verdicts.
func readerErrors(b []byte) map[string]error {
	_, rerr := ReadTrace(bytes.NewReader(b))
	_, cerr := cursorScan(b)
	_, serr := Stat(bytes.NewReader(b))
	return map[string]error{"ReadTrace": rerr, "Cursor": cerr, "Stat": serr}
}

func TestReadTraceV3ChunkCRCMismatch(t *testing.T) {
	b := encode(t, miniTrace())
	// Flip one bit in the middle of the first chunk's payload: the chunk
	// CRC must reject it before the varint decoder ever sees the bytes.
	b[hdrEnd+chunkHdrSize+5] ^= 0x10
	_, err := ReadTrace(bytes.NewReader(b))
	if err == nil {
		t.Fatal("bit-flipped v3 chunk accepted")
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Errorf("chunk bit flip rejected with %v, want a CRC error", err)
	}
}

// TestReadTraceHeaderCRCMismatch flips the header's CPU byte. No chunk CRC
// covers the header, so only the whole-file footer can catch it: the
// decoding readers must fail with a CRC error, and Stat must report the
// footer mismatch while every chunk still checks out.
func TestReadTraceHeaderCRCMismatch(t *testing.T) {
	b := encode(t, miniTrace())
	b[8] ^= 0x01 // low byte of the CPU field
	_, rerr := ReadTrace(bytes.NewReader(b))
	_, cerr := cursorScan(b)
	for name, err := range map[string]error{"ReadTrace": rerr, "Cursor": cerr} {
		if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
			t.Errorf("%s: header bit flip rejected with %v, want a CRC error", name, err)
		}
	}
	s, err := Stat(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if s.FooterOK || s.ChunksOK != s.Chunks {
		t.Errorf("Stat = %+v, want every chunk ok and FooterOK false", s)
	}
}

// TestReadTraceV3BadChunkHeader corrupts a chunk header's declared sizes:
// every reader must reject implausible counts without huge allocations,
// and with the same plausibility error.
func TestReadTraceV3BadChunkHeader(t *testing.T) {
	orig := encode(t, miniTrace())
	for _, bad := range []struct {
		name  string
		patch func(b []byte)
		want  string
	}{
		{"zero events", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrEnd:], 0) }, "chunk claims 0 events"},
		{"too many events", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrEnd:], 1<<31) }, "chunk claims 2147483648 events"},
		{"oversized payload", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrEnd+4:], 1<<30) }, "implausible size 1073741824"},
		{"undersized payload", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrEnd+4:], 1) }, "implausible size 1"},
	} {
		b := append([]byte(nil), orig...)
		bad.patch(b)
		for name, err := range readerErrors(b) {
			if err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Errorf("%s: %s err = %v, want %q", bad.name, name, err, bad.want)
			}
		}
	}
}

// TestTrailingBytesRejected: the input must end at the footer. A second
// trace appended, stray junk, or a single pad byte are all rejected by
// every reader.
func TestTrailingBytesRejected(t *testing.T) {
	valid := encode(t, miniTrace())
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"concatenated", valid},
		{"junk", []byte("junk")},
		{"one zero byte", []byte{0}},
	} {
		b := append(append([]byte(nil), valid...), tc.tail...)
		for name, err := range readerErrors(b) {
			if err == nil || !strings.Contains(err.Error(), "trailing bytes after CRC footer") {
				t.Errorf("%s: %s err = %v, want a trailing-bytes error", tc.name, name, err)
			}
		}
	}
}

func TestReadTraceFooterTruncated(t *testing.T) {
	b := encode(t, miniTrace())
	for cut := len(b) - footerSize; cut < len(b); cut++ {
		if _, err := ReadTrace(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("trace with footer truncated to %d of %d bytes accepted", cut, len(b))
		}
	}
}

func TestReadTraceBadFooterMagic(t *testing.T) {
	b := encode(t, miniTrace())
	b[len(b)-footerSize] = 'X'
	if _, err := ReadTrace(bytes.NewReader(b)); err == nil {
		t.Error("corrupted footer magic accepted")
	}
}

// TestReadTraceHugeCountNoOOM feeds a header that claims 2^34 events but
// carries none. The reader must fail on the missing data without first
// allocating the declared (multi-hundred-gigabyte) event slice.
func TestReadTraceHugeCountNoOOM(t *testing.T) {
	var b bytes.Buffer
	var hdr [24]byte
	copy(hdr[0:4], traceMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	binary.LittleEndian.PutUint32(hdr[16:20], 50)
	b.Write(hdr[:])
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], 1<<34)
	b.Write(cnt[:])
	if _, err := ReadTrace(bytes.NewReader(b.Bytes())); err == nil {
		t.Error("event count with no event data accepted")
	}
}

// TestReadTraceBadOpcode serializes a trace whose opcode byte is garbage —
// the writer does not validate, so the stream is structurally well-formed
// with intact checksums — and demands the reader's opcode check reject it.
func TestReadTraceBadOpcode(t *testing.T) {
	tr := miniTrace()
	tr.Events[0].Instr.Op = isa.Op(0xFF)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("invalid opcode accepted")
	}
}

// TestReadTraceInvalidLatencyRejected serializes a structurally well-formed
// trace violating a semantic invariant (a memory event with zero latency):
// checksums all match, so only the post-decode Validate can reject it.
func TestReadTraceInvalidLatencyRejected(t *testing.T) {
	tr := miniTrace()
	tr.Events[1].Latency = 0
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("zero-latency memory event accepted (Validate should reject)")
	}
}
