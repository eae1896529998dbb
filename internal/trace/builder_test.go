package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"dynsched/internal/isa"
)

// TestBuilder appends across several chunk boundaries, patches events on
// both sides of one through At, and checks the hand-off: the events in
// order, exactly sized, with the metadata, and an empty builder after.
func TestBuilder(t *testing.T) {
	meta := Meta{App: "b", CPU: 2, NumCPUs: 4, MissPenalty: 50}

	empty := NewBuilder(meta).Trace()
	if empty.Len() != 0 || cap(empty.Events) != 0 || empty.Meta() != meta {
		t.Fatalf("empty builder: len %d cap %d meta %+v", empty.Len(), cap(empty.Events), empty.Meta())
	}

	const n = 2*builderChunk + 5
	b := NewBuilder(meta)
	want := make([]Event, n)
	for i := 0; i < n; i++ {
		if b.Len() != i {
			t.Fatalf("Len = %d before append %d", b.Len(), i)
		}
		e := b.Append()
		if *e != (Event{}) {
			t.Fatalf("Append %d returned a non-zero slot %+v", i, *e)
		}
		e.PC, e.NextPC, e.Addr = int32(i), int32(i+1), uint64(i)*8
		e.Instr.Op = isa.OpAdd
		want[i] = *e
	}
	// A blocked sync event is patched after later events were appended;
	// cover the last slot of a chunk and the first of the next.
	for _, i := range []int{builderChunk - 1, builderChunk, 2 * builderChunk} {
		e := b.At(i)
		if *e != want[i] {
			t.Fatalf("At(%d) = %+v, want %+v", i, *e, want[i])
		}
		e.Latency, e.Wait, e.Miss = 50, uint32(i), true
		want[i] = *e
	}

	tr := b.Trace()
	if tr.Meta() != meta {
		t.Errorf("meta = %+v, want %+v", tr.Meta(), meta)
	}
	if len(tr.Events) != n || cap(tr.Events) != n {
		t.Errorf("handed-over Events: len %d cap %d, want both %d", len(tr.Events), cap(tr.Events), n)
	}
	if !reflect.DeepEqual(tr.Events, want) {
		t.Error("handed-over events differ from those appended and patched")
	}
	if b.Len() != 0 || b.Trace().Len() != 0 {
		t.Error("builder not empty after the hand-off")
	}
}

// TestReadTraceExactSize checks that ReadTrace returns exactly sized
// Events from sized input (decoded in place) and from input of unknown
// size (collected in a Builder), with the same events either way.
func TestReadTraceExactSize(t *testing.T) {
	orig := syntheticTrace(3*chunkEvents + 11)
	raw := encode(t, orig)
	inputs := map[string]io.Reader{
		"sized":   bytes.NewReader(raw),
		"unsized": struct{ io.Reader }{bytes.NewReader(raw)},
	}
	for name, r := range inputs {
		got, err := ReadTrace(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Events) != orig.Len() || cap(got.Events) != orig.Len() {
			t.Errorf("%s: len %d cap %d, want both %d", name, len(got.Events), cap(got.Events), orig.Len())
		}
		if got.Meta() != orig.Meta() || !reflect.DeepEqual(got.Events, orig.Events) {
			t.Errorf("%s: trace did not survive the round trip", name)
		}
	}
}
