package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestConvertRoundTrip gates the streaming rewrite: a v3→v3 conversion is
// byte-identical (Writer and Trace.WriteTo share the encoder), and a v2→v3
// conversion carries every event and the header metadata across unchanged.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "lu.trace")
	if err := run([]string{"gen", "-app", "lu", "-scale", "small", "-o", src}); err != nil {
		t.Fatalf("gen: %v", err)
	}

	out := filepath.Join(dir, "lu.v3.trace")
	if err := run([]string{"convert", "-o", out, src}); err != nil {
		t.Fatalf("convert v3: %v", err)
	}
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v3 -> v3 conversion not byte-identical: %d vs %d bytes", len(got), len(want))
	}

	tr, err := load(src)
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "lu.v2.trace")
	f, err := os.Create(v2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteToV2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(dir, "lu.v2to3.trace")
	if err := run([]string{"convert", "-o", out2, v2}); err != nil {
		t.Fatalf("convert v2: %v", err)
	}
	conv, err := load(out2)
	if err != nil {
		t.Fatalf("converted trace rejected: %v", err)
	}
	if conv.Meta() != tr.Meta() {
		t.Errorf("converted meta %+v, want %+v", conv.Meta(), tr.Meta())
	}
	if !reflect.DeepEqual(conv.Events, tr.Events) {
		t.Error("converted events differ from source")
	}
	if st, err := statFile(out2); err != nil || st.Version != 3 {
		t.Errorf("converted file version %d (err %v), want 3", st.Version, err)
	}
}

func TestGenInfoReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "lu.trace")

	if err := run([]string{"gen", "-app", "lu", "-scale", "small", "-o", file}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if fi, err := os.Stat(file); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}
	if err := run([]string{"info", file}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := run([]string{"replay", "-arch", "DS", "-model", "RC", "-window", "64", file}); err != nil {
		t.Fatalf("replay DS: %v", err)
	}
	if err := run([]string{"replay", "-arch", "SSBR", "-model", "SC", file}); err != nil {
		t.Fatalf("replay SSBR: %v", err)
	}
	if err := run([]string{"replay", "-arch", "BASE", file}); err != nil {
		t.Fatalf("replay BASE: %v", err)
	}
	if err := run([]string{"replay", "-arch", "DS", "-model", "SC", "-prefetch", "-perfect", file}); err != nil {
		t.Fatalf("replay with extensions: %v", err)
	}
}

func TestToolErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("bogus subcommand accepted")
	}
	if err := run([]string{"gen", "-app", "lu"}); err == nil {
		t.Error("gen without -o accepted")
	}
	if err := run([]string{"info", "/nonexistent/file.trace"}); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "x.trace")
	if err := run([]string{"gen", "-app", "lu", "-scale", "small", "-o", file}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"replay", "-arch", "QUANTUM", file}); err == nil {
		t.Error("unknown arch accepted")
	}
	if err := run([]string{"replay", "-model", "XX", file}); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run([]string{"convert", file}); err == nil {
		t.Error("convert without -o accepted")
	}
	if err := run([]string{"convert", "-o", filepath.Join(dir, "out.trace"), "/nonexistent/file.trace"}); err == nil {
		t.Error("convert of missing file accepted")
	}

	// Flag values that used to be rewritten silently (or panic) are usage
	// errors naming the offending flags.
	out := filepath.Join(dir, "bad.trace")
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"gen", "-app", "lu", "-scale", "small", "-cpus", "2", "-latency", "0", "-o", out}, []string{"-latency"}},
		{[]string{"gen", "-app", "lu", "-scale", "small", "-cpus", "2", "-latency", "4294967346", "-o", out}, []string{"-latency"}},
		{[]string{"gen", "-app", "lu", "-scale", "small", "-cpus", "2", "-tracecpu", "5", "-o", out}, []string{"-tracecpu"}},
		{[]string{"gen", "-app", "lu", "-scale", "small", "-cpus", "2", "-tracecpu", "-1", "-o", out}, []string{"-tracecpu"}},
		{[]string{"gen", "-app", "lu", "-scale", "small", "-cpus", "0", "-o", out}, []string{"-cpus"}},
		{[]string{"replay", "-arch", "BASE", "-pipe-trace-out", filepath.Join(dir, "p.json"), file}, []string{"-pipe-trace-out", "-arch BASE"}},
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%v accepted, want a usage error", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: err = %v, want it to name %s", tc.args, err, w)
			}
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a rejected gen wrote its output file")
	}
}
