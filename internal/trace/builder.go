package trace

// builderChunkShift sets the Builder's chunk size: 2^15 events, about
// 1.5 MB per chunk. Large enough that the chunk index costs nothing next
// to filling an event, small enough that the last, partly filled chunk is
// noise beside a paper-scale trace.
const builderChunkShift = 15

const (
	builderChunk = 1 << builderChunkShift
	builderMask  = builderChunk - 1
)

// Builder accumulates a trace whose length is not known in advance. Events
// live in fixed-size chunks that never move once allocated, so growing the
// trace copies nothing and a slot handed out by Append or At stays valid
// until Trace. Trace makes the one copy, into an exactly sized Events
// slice. The zero value is an empty builder with zero metadata.
type Builder struct {
	meta   Meta
	chunks [][]Event
	n      int
}

// NewBuilder returns an empty builder for a trace with metadata m.
func NewBuilder(m Meta) *Builder { return &Builder{meta: m} }

// Len returns the number of events appended so far.
func (b *Builder) Len() int { return b.n }

// Append adds a zeroed event at index Len() and returns it for the caller
// to fill in place.
func (b *Builder) Append() *Event {
	i := b.n & builderMask
	if i == 0 {
		b.chunks = append(b.chunks, make([]Event, builderChunk))
	}
	b.n++
	return &b.chunks[len(b.chunks)-1][i]
}

// At returns event i, which must be below Len(), for patching in place.
func (b *Builder) At(i int) *Event {
	return &b.chunks[i>>builderChunkShift][i&builderMask]
}

// Trace hands the accumulated events over as a Trace whose Events has
// length and capacity Len(), and leaves the builder empty.
func (b *Builder) Trace() *Trace {
	ev := make([]Event, b.n)
	for c, chunk := range b.chunks {
		copy(ev[c<<builderChunkShift:], chunk)
	}
	m := b.meta
	*b = Builder{meta: m}
	return &Trace{App: m.App, CPU: m.CPU, NumCPUs: m.NumCPUs, MissPenalty: m.MissPenalty, Events: ev}
}
