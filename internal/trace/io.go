package trace

// Binary trace serialization. Traces are expensive to generate at paper
// scale (they require the full 16-processor simulation), so the tools can
// save them to disk and replay them repeatedly — the same workflow the
// paper's trace-driven methodology implies.
//
// The container (version 3, little endian):
//
//	magic   "DSTR"                      4 bytes
//	version uint32                      always 3
//	cpu, numCPUs, missPenalty uint32    12 bytes
//	appLen  uint32, app bytes           variable
//	count   uint64                      number of events
//	chunks  until count events are consumed:
//	    nEvents uint32                  events in this chunk (≤ 4096)
//	    nBytes  uint32                  encoded payload size
//	    payload nBytes bytes            varint/delta-encoded events
//	    crc32   uint32                  CRC32-IEEE of the payload
//	footer  "DSCR" + crc32 uint32       8 bytes, checksums the whole file;
//	                                    the input must end right after it
//
// Within a chunk each event is a flags byte, an opcode byte, and then only
// the fields the flags declare present, delta-encoded against a per-chunk
// predictor: the PC is encoded only when it differs from the previous
// event's NextPC (flag bit 7), NextPC is stored as a zigzag varint of
// NextPC−(PC+1) (zero for straight-line code, so one byte), the effective
// address as a zigzag varint delta against the previous address-bearing
// event, and Imm/Latency/Wait as varints elided entirely when zero. An ALU
// instruction in straight-line code therefore costs 3 bytes. Delta state
// resets at every chunk boundary, so a corrupted chunk cannot poison its
// successors, and each chunk carries its own CRC so corruption is
// localized on read.
//
// Three readers walk this container: ReadTrace materializes the whole
// event slice, Cursor (cursor.go) streams chunk-resident events through a
// fixed ring without ever holding the full trace, and Stat (stat.go)
// reports the physical layout without decoding events. All three are built
// from readHeader, readFrame and readFooter below, so they accept and
// reject the same byte streams; the fuzz target pins that they agree.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"

	"dynsched/internal/isa"
)

var traceMagic = [4]byte{'D', 'S', 'T', 'R'}

// formatVersion is bumped whenever the on-disk layout changes; readHeader
// rejects every other version.
const formatVersion = 3

// FormatVersion is the current on-disk format version, exported so cache
// keys can incorporate it: a format bump must invalidate every cached trace
// artifact, since the content address is computed over the serialized bytes.
const FormatVersion = formatVersion

// footerMagic guards the trailing CRC32 footer; it doubles as a cheap
// truncation detector before the checksum is even compared.
var footerMagic = [4]byte{'D', 'S', 'C', 'R'}

const footerSize = 8

// chunkEvents is the maximum events per chunk. 4096 keeps the chunk buffer
// (≤ chunkEvents·maxEventEnc bytes) comfortably cache-sized while
// amortizing the 12-byte chunk overhead to noise.
const chunkEvents = 4096

// maxEventEnc bounds the encoded size of one event: flags 1 + op 1 + dPC
// ≤10 + dNextPC ≤10 + regs 3 + imm ≤10 + addr ≤10 + latency ≤5 + wait ≤5.
// Used to reject implausible chunk headers before allocating.
const maxEventEnc = 55

const chunkHdrSize = 8 // nEvents uint32 + nBytes uint32

// chunkCRCSize is the per-chunk payload checksum that closes every frame.
const chunkCRCSize = 4

// maxEventCount is the implausibility bound on the declared event count.
const maxEventCount = 1 << 34

// Per-event flag bits. Bits 2–6 declare which optional fields follow; a
// clear bit means the field is zero and absent from the stream.
const (
	f3Miss    = 1 << 0 // Miss
	f3Taken   = 1 << 1 // Taken
	f3Regs    = 1 << 2 // Dst, Src1, Src2 bytes present (any nonzero)
	f3Imm     = 1 << 3 // Imm varint present
	f3Addr    = 1 << 4 // Addr delta varint present
	f3Latency = 1 << 5 // Latency uvarint present
	f3Wait    = 1 << 6 // Wait uvarint present
	f3PCJump  = 1 << 7 // PC ≠ previous event's NextPC; dPC varint present
)

// WriteTo serializes the trace and returns the number of bytes written.
// Each chunk of up to chunkEvents events is encoded against fresh delta
// state, framed with its event count, byte count and payload CRC, and
// written whole; the footer checksums everything before it.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var sum uint32
	var n int64
	put := func(b []byte) error {
		m, err := bw.Write(b)
		n += int64(m)
		sum = crc32Append(sum, b[:m])
		return err
	}
	if err := put(encodeHeader(t.Meta(), uint64(len(t.Events)))); err != nil {
		return n, err
	}
	// One buffer holds the whole frame, so the chunk header is patched in
	// once the payload size is known and the frame goes out in one write.
	frame := make([]byte, 0, chunkHdrSize+chunkEvents*maxEventEnc+chunkCRCSize)
	for base := 0; base < len(t.Events); base += chunkEvents {
		end := min(base+chunkEvents, len(t.Events))
		frame = frame[:chunkHdrSize]
		var predPC int32
		var prevAddr uint64
		for i := base; i < end; i++ {
			frame = appendEventV3(frame, &t.Events[i], &predPC, &prevAddr)
		}
		payload := frame[chunkHdrSize:]
		binary.LittleEndian.PutUint32(frame[0:4], uint32(end-base))
		binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		if err := put(frame); err != nil {
			return n, err
		}
	}
	var foot [footerSize]byte
	copy(foot[0:4], footerMagic[:])
	binary.LittleEndian.PutUint32(foot[4:8], sum)
	if err := put(foot[:]); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ContentAddr returns the trace's content address: the FNV-64a of its
// serialization, formatted as 16 hex digits. Encoding is
// byte-deterministic, so this is the same address the distributed
// coordinator computes over the bytes it serves from /traces/{addr} and
// the address the result cache keys cell entries by — one identity for a
// trace's content everywhere it travels.
func (t *Trace) ContentAddr() (string, error) {
	h := fnv.New64a()
	if _, err := t.WriteTo(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// encodeHeader builds the fixed header, app name, and event count.
func encodeHeader(m Meta, count uint64) []byte {
	b := make([]byte, 24, 24+len(m.App)+8)
	copy(b[0:4], traceMagic[:])
	binary.LittleEndian.PutUint32(b[4:8], formatVersion)
	binary.LittleEndian.PutUint32(b[8:12], uint32(m.CPU))
	binary.LittleEndian.PutUint32(b[12:16], uint32(m.NumCPUs))
	binary.LittleEndian.PutUint32(b[16:20], m.MissPenalty)
	binary.LittleEndian.PutUint32(b[20:24], uint32(len(m.App)))
	b = append(b, m.App...)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], count)
	return append(b, cnt[:]...)
}

// appendEventV3 encodes one event against the chunk's delta state: predPC
// is the previous event's NextPC (what straight-line code predicts for this
// PC), prevAddr the address of the previous address-bearing event.
func appendEventV3(buf []byte, e *Event, predPC *int32, prevAddr *uint64) []byte {
	var flags uint8
	if e.Miss {
		flags |= f3Miss
	}
	if e.Taken {
		flags |= f3Taken
	}
	if e.Instr.Dst != 0 || e.Instr.Src1 != 0 || e.Instr.Src2 != 0 {
		flags |= f3Regs
	}
	if e.Instr.Imm != 0 {
		flags |= f3Imm
	}
	if e.Addr != 0 {
		flags |= f3Addr
	}
	if e.Latency != 0 {
		flags |= f3Latency
	}
	if e.Wait != 0 {
		flags |= f3Wait
	}
	if e.PC != *predPC {
		flags |= f3PCJump
	}
	buf = append(buf, flags, uint8(e.Instr.Op))
	if flags&f3PCJump != 0 {
		buf = binary.AppendVarint(buf, int64(e.PC)-int64(*predPC))
	}
	buf = binary.AppendVarint(buf, int64(e.NextPC)-int64(e.PC)-1)
	if flags&f3Regs != 0 {
		buf = append(buf, e.Instr.Dst, e.Instr.Src1, e.Instr.Src2)
	}
	if flags&f3Imm != 0 {
		buf = binary.AppendVarint(buf, e.Instr.Imm)
	}
	if flags&f3Addr != 0 {
		// Wrapping uint64 subtraction: the zigzag varint round-trips any
		// delta, and the decoder adds it back with the same wrap.
		buf = binary.AppendVarint(buf, int64(e.Addr-*prevAddr))
		*prevAddr = e.Addr
	}
	if flags&f3Latency != 0 {
		buf = binary.AppendUvarint(buf, uint64(e.Latency))
	}
	if flags&f3Wait != 0 {
		buf = binary.AppendUvarint(buf, uint64(e.Wait))
	}
	*predPC = e.NextPC
	return buf
}

// readHeader parses the magic, version, machine parameters, app name, and
// declared event count, folding the consumed bytes into the running
// whole-file CRC at *sum. The checksum is a plain uint32 advanced with
// crc32.Update rather than a hash.Hash32 so the fixed read buffers never
// escape through an interface call (the streaming read path is
// allocation-free per chunk).
func readHeader(br *bufio.Reader, sum *uint32) (m Meta, count uint64, err error) {
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return m, 0, fmt.Errorf("trace: short header: %w", err)
	}
	*sum = crc32Append(*sum, hdr[:])
	if [4]byte(hdr[0:4]) != traceMagic {
		return m, 0, fmt.Errorf("trace: bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != formatVersion {
		return m, 0, fmt.Errorf("trace: unsupported format version %d (only v%d is read)", v, formatVersion)
	}
	m.CPU = int(binary.LittleEndian.Uint32(hdr[8:12]))
	m.NumCPUs = int(binary.LittleEndian.Uint32(hdr[12:16]))
	m.MissPenalty = binary.LittleEndian.Uint32(hdr[16:20])
	appLen := binary.LittleEndian.Uint32(hdr[20:24])
	if appLen > 1<<16 {
		return m, 0, fmt.Errorf("trace: implausible app name length %d", appLen)
	}
	// Fast path: the name almost always fits the reader's buffer, so Peek +
	// Discard reads it in place — one string allocation instead of a scratch
	// slice plus the string. The ReadFull fallback covers callers that hand
	// in an undersized bufio.Reader.
	if b, perr := br.Peek(int(appLen)); perr == nil {
		*sum = crc32Append(*sum, b)
		m.App = string(b)
		br.Discard(int(appLen))
	} else {
		app := make([]byte, appLen)
		if _, err := io.ReadFull(br, app); err != nil {
			return m, 0, fmt.Errorf("trace: short app name: %w", err)
		}
		*sum = crc32Append(*sum, app)
		m.App = string(app)
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return m, 0, fmt.Errorf("trace: short count: %w", err)
	}
	*sum = crc32Append(*sum, cnt[:])
	count = binary.LittleEndian.Uint64(cnt[:])
	if count > maxEventCount {
		return m, 0, fmt.Errorf("trace: implausible event count %d", count)
	}
	return m, count, nil
}

// headerSize is the encoded size of a header naming app.
func headerSize(app string) uint64 { return 24 + uint64(len(app)) + 8 }

// readFrame reads one chunk frame at event offset read (of count total),
// reusing *buf for the payload: the chunk header, its plausibility bounds,
// the payload and the stored payload CRC. It returns the payload (aliasing
// *buf), the declared event count and the stored CRC without comparing
// them; readChunk does that for the decoding readers, and Stat counts the
// mismatches instead.
func readFrame(br *bufio.Reader, sum *uint32, buf *[]byte, read, count uint64) (payload []byte, nEvents int, crc uint32, err error) {
	// The chunk header and trailing CRC are read through slices of the
	// reusable payload buffer rather than stack arrays: a stack array
	// passed to io.ReadFull escapes through the io.Reader interface and
	// would cost two heap allocations per chunk on the streaming path.
	if cap(*buf) < chunkHdrSize {
		// Pre-size for a typical full chunk (4096 events at the ~7-16
		// bytes/event the encoding averages), so most traces never regrow
		// the buffer: one payload allocation per scan instead of a geometric
		// ladder starting from a small seed.
		*buf = make([]byte, 0, 1<<16)
	}
	hdr := (*buf)[:chunkHdrSize]
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, 0, 0, fmt.Errorf("trace: short chunk header at event %d: %w", read, err)
	}
	*sum = crc32Append(*sum, hdr)
	n := binary.LittleEndian.Uint32(hdr[0:4])
	nBytes := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > chunkEvents || uint64(n) > count-read {
		return nil, 0, 0, fmt.Errorf("trace: chunk claims %d events with %d remaining", n, count-read)
	}
	if nBytes < 2*n || nBytes > n*maxEventEnc {
		return nil, 0, 0, fmt.Errorf("trace: chunk of %d events claims implausible size %d", n, nBytes)
	}
	if uint32(cap(*buf)) < nBytes+chunkCRCSize {
		// Grow geometrically so a stream of slightly-growing chunks costs
		// O(log) allocations, not one per chunk. The extra room holds the
		// chunk CRC behind the payload.
		newCap := 2 * cap(*buf)
		if uint32(newCap) < nBytes+chunkCRCSize {
			newCap = int(nBytes) + chunkCRCSize
		}
		*buf = make([]byte, 0, newCap)
	}
	payload = (*buf)[:nBytes]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, 0, fmt.Errorf("trace: short chunk payload at event %d: %w", read, err)
	}
	*sum = crc32Append(*sum, payload)
	cb := (*buf)[nBytes : nBytes+chunkCRCSize]
	if _, err := io.ReadFull(br, cb); err != nil {
		return nil, 0, 0, fmt.Errorf("trace: short chunk CRC at event %d: %w", read, err)
	}
	*sum = crc32Append(*sum, cb)
	return payload, int(n), binary.LittleEndian.Uint32(cb), nil
}

// readChunk reads one chunk frame and verifies its payload CRC, so the
// caller decodes only bytes whose checksum already matched.
func readChunk(br *bufio.Reader, sum *uint32, buf *[]byte, read, count uint64) ([]byte, int, error) {
	payload, nEvents, want, err := readFrame(br, sum, buf, read, count)
	if err != nil {
		return nil, 0, err
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, fmt.Errorf("trace: chunk CRC mismatch at event %d: computed %08x, header says %08x", read, got, want)
	}
	return payload, nEvents, nil
}

// readFooter reads the "DSCR"+crc32 trailer and requires the input to end
// right after it, so a concatenated or padded file is rejected by every
// reader alike. It returns the stored whole-file CRC; checkFooter compares
// it for the decoding readers, and Stat reports the comparison instead.
func readFooter(br *bufio.Reader) (uint32, error) {
	var foot [footerSize]byte
	if _, err := io.ReadFull(br, foot[:]); err != nil {
		return 0, fmt.Errorf("trace: short CRC footer: %w", err)
	}
	if [4]byte(foot[0:4]) != footerMagic {
		return 0, fmt.Errorf("trace: bad CRC footer magic %q", foot[0:4])
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return 0, fmt.Errorf("trace: reading past CRC footer: %w", err)
		}
		return 0, fmt.Errorf("trace: trailing bytes after CRC footer")
	}
	return binary.LittleEndian.Uint32(foot[4:8]), nil
}

// checkFooter reads the footer and checks it against the running
// whole-file checksum.
func checkFooter(br *bufio.Reader, sum uint32) error {
	want, err := readFooter(br)
	if err != nil {
		return err
	}
	if sum != want {
		return fmt.Errorf("trace: CRC mismatch: computed %08x, footer says %08x (corrupted or torn file)", sum, want)
	}
	return nil
}

// inputSize reports the byte size of the reader's underlying input when it
// is knowable without consuming it: a regular file (anything with a Stat
// method, e.g. *os.File) or an in-memory reader with a Len method
// (bytes.Reader, strings.Reader). ReadTrace uses it to bound the Events
// preallocation against what the input could physically contain.
func inputSize(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size(), true
		}
	case interface{ Len() int }:
		return int64(v.Len()), true
	}
	return 0, false
}

// eventCap converts the header's declared event count into a safe Events
// preallocation. When the input size is known, the count is trusted only up
// to the number of events the remaining bytes could minimally encode (2
// bytes each), so a corrupted header claiming 2^34 events cannot allocate
// hundreds of gigabytes before the short read is noticed. When the size is
// unknown (a pipe, a network stream), the preallocation falls back to one
// chunk and the slice grows as data actually arrives.
func eventCap(count uint64, size int64, sized bool) int {
	if sized {
		return int(min(count, uint64(size)/2))
	}
	return int(min(count, chunkEvents))
}

// growEvents extends ev by n zeroed slots, doubling the backing array when
// it must grow (the unsized-input fallback path; sized inputs preallocate
// exactly once).
func growEvents(ev []Event, n int) []Event {
	need := len(ev) + n
	if cap(ev) >= need {
		return ev[:need]
	}
	newCap := 2 * cap(ev)
	if newCap < need {
		newCap = need
	}
	out := make([]Event, need, newCap)
	copy(out, ev)
	return out
}

// ReadTrace deserializes a trace written by WriteTo and validates it. Each
// chunk's CRC is verified before its payload is decoded, so a corrupted
// chunk is reported as a checksum failure, not as whatever garbage the
// varint decoder would have made of it; truncation, bit flips, torn writes
// and trailing bytes are all rejected instead of replayed as garbage.
func ReadTrace(r io.Reader) (*Trace, error) {
	size, sized := inputSize(r)
	br := bufio.NewReaderSize(r, 1<<16)
	var sum uint32
	meta, count, err := readHeader(br, &sum)
	if err != nil {
		return nil, err
	}
	t := &Trace{App: meta.App, CPU: meta.CPU, NumCPUs: meta.NumCPUs, MissPenalty: meta.MissPenalty}
	t.Events = make([]Event, 0, eventCap(count, size, sized))
	var buf []byte
	for read := uint64(0); read < count; {
		payload, nEvents, err := readChunk(br, &sum, &buf, read, count)
		if err != nil {
			return nil, err
		}
		n := len(t.Events)
		t.Events = growEvents(t.Events, nEvents)
		if err := decodeChunkV3(payload, t.Events[n:]); err != nil {
			return nil, fmt.Errorf("trace: chunk at event %d: %w", read, err)
		}
		read += uint64(nEvents)
	}
	if err := checkFooter(br, sum); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: deserialized trace invalid: %w", err)
	}
	return t, nil
}

// crc32Append folds b into the running whole-file CRC.
func crc32Append(sum uint32, b []byte) uint32 {
	return crc32.Update(sum, crc32.IEEETable, b)
}

// errBrokenLink is shared by Validate and the streaming Cursor so both
// readers report identical linkage failures.
func errBrokenLink(app string, i uint64, nextPC, pc int32) error {
	return fmt.Errorf("trace %s[%d]: NextPC %d does not link to following PC %d", app, i, nextPC, pc)
}

// decodeChunkV3 decodes one chunk payload into dst, which must have exactly
// the chunk's declared event count. The payload must be consumed exactly.
// Delta state (predicted PC, previous address) starts fresh: it resets at
// every chunk boundary by design.
func decodeChunkV3(buf []byte, dst []Event) error {
	pos := 0
	nEvents := len(dst)
	var predPC int32
	var prevAddr uint64
	for i := 0; i < nEvents; i++ {
		if pos+2 > len(buf) {
			return fmt.Errorf("payload exhausted at event %d of %d", i, nEvents)
		}
		flags, op := buf[pos], buf[pos+1]
		pos += 2
		e := &dst[i]
		*e = Event{}
		e.Instr.Op = isa.Op(op)
		if !e.Instr.Op.Valid() {
			return fmt.Errorf("event %d has invalid opcode %d", i, op)
		}
		e.Miss = flags&f3Miss != 0
		e.Taken = flags&f3Taken != 0
		pc := int64(predPC)
		if flags&f3PCJump != 0 {
			d, ok := takeVarint(buf, &pos)
			if !ok {
				return errBadVarint(pos)
			}
			pc += d
		}
		dNext, ok := takeVarint(buf, &pos)
		if !ok {
			return errBadVarint(pos)
		}
		next := pc + 1 + dNext
		if pc < -1<<31 || pc > 1<<31-1 || next < -1<<31 || next > 1<<31-1 {
			return fmt.Errorf("event %d PC delta out of range", i)
		}
		e.PC = int32(pc)
		e.NextPC = int32(next)
		if flags&f3Regs != 0 {
			if pos+3 > len(buf) {
				return fmt.Errorf("payload exhausted in event %d registers", i)
			}
			e.Instr.Dst, e.Instr.Src1, e.Instr.Src2 = buf[pos], buf[pos+1], buf[pos+2]
			pos += 3
		}
		if flags&f3Imm != 0 {
			if e.Instr.Imm, ok = takeVarint(buf, &pos); !ok {
				return errBadVarint(pos)
			}
		}
		if flags&f3Addr != 0 {
			d, ok := takeVarint(buf, &pos)
			if !ok {
				return errBadVarint(pos)
			}
			prevAddr += uint64(d)
			e.Addr = prevAddr
		}
		if flags&f3Latency != 0 {
			v, ok := takeUvarint(buf, &pos)
			if !ok {
				return errBadVarint(pos)
			}
			if v > 1<<32-1 {
				return fmt.Errorf("event %d latency %d overflows uint32", i, v)
			}
			e.Latency = uint32(v)
		}
		if flags&f3Wait != 0 {
			v, ok := takeUvarint(buf, &pos)
			if !ok {
				return errBadVarint(pos)
			}
			if v > 1<<32-1 {
				return fmt.Errorf("event %d wait %d overflows uint32", i, v)
			}
			e.Wait = uint32(v)
		}
		predPC = e.NextPC
	}
	if pos != len(buf) {
		return fmt.Errorf("chunk has %d undecoded trailing bytes", len(buf)-pos)
	}
	return nil
}

// takeVarint and takeUvarint decode at *pos and advance it. They are plain
// functions (not closures) so a chunk decode allocates nothing.
func takeVarint(buf []byte, pos *int) (int64, bool) {
	v, n := binary.Varint(buf[*pos:])
	if n <= 0 {
		return 0, false
	}
	*pos += n
	return v, true
}

func takeUvarint(buf []byte, pos *int) (uint64, bool) {
	v, n := binary.Uvarint(buf[*pos:])
	if n <= 0 {
		return 0, false
	}
	*pos += n
	return v, true
}

func errBadVarint(pos int) error {
	return fmt.Errorf("truncated or oversized varint at offset %d", pos)
}
