package trace

// Container-level statistics for serialized traces. Stat walks the on-disk
// structure — header, chunk frames, CRC footer — through the same helpers
// as ReadTrace and Cursor, without decoding events into memory, so
// `tracetool info` can report the physical layout (chunk count, per-chunk
// CRC status, encoded bytes per event) of traces far larger than RAM would
// allow ReadTrace to hold twice.

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
)

// FileStat describes the physical layout of one serialized trace.
type FileStat struct {
	App          string
	Events       uint64 // declared event count
	Chunks       int    // chunk frames
	ChunksOK     int    // chunks whose payload matched their CRC32
	PayloadBytes uint64 // encoded event bytes (excluding container framing)
	FileBytes    uint64 // total bytes, framing included
	FooterOK     bool   // footer CRC matched the bytes read
}

// BytesPerEvent is the encoded payload density. Zero-event traces report 0.
func (s FileStat) BytesPerEvent() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.PayloadBytes) / float64(s.Events)
}

// Stat reads a serialized trace's container structure from r. Checksum
// mismatches — a corrupt chunk, a stale footer — are reported in the
// returned stat where ReadTrace and Cursor would reject them; everything
// else they reject (bad magic or version, truncation, implausible frame
// sizes, bytes after the footer) fails Stat with the same error.
func Stat(r io.Reader) (FileStat, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var sum uint32
	m, count, err := readHeader(br, &sum)
	if err != nil {
		return FileStat{}, err
	}
	s := FileStat{App: m.App, Events: count, FileBytes: headerSize(m.App)}
	var buf []byte
	for read := uint64(0); read < count; {
		payload, n, crc, err := readFrame(br, &sum, &buf, read, count)
		if err != nil {
			return s, err
		}
		s.Chunks++
		if crc32.ChecksumIEEE(payload) == crc {
			s.ChunksOK++
		}
		s.PayloadBytes += uint64(len(payload))
		s.FileBytes += chunkHdrSize + uint64(len(payload)) + chunkCRCSize
		read += uint64(n)
	}
	want, err := readFooter(br)
	if err != nil {
		return s, err
	}
	s.FileBytes += footerSize
	s.FooterOK = want == sum
	return s, nil
}

// Format renders the stat as the one-line physical summary tracetool prints.
func (s FileStat) Format() string {
	out := fmt.Sprintf("format v%d, %d bytes, %.2f bytes/event, %d chunks (%d/%d CRC ok)",
		formatVersion, s.FileBytes, s.BytesPerEvent(), s.Chunks, s.ChunksOK, s.Chunks)
	if s.FooterOK {
		return out + ", footer CRC ok"
	}
	return out + ", FOOTER CRC MISMATCH"
}
