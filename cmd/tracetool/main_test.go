package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
	// A bad -arch or -model is refused before the replay opens its input or
	// starts a profile.
	for _, tc := range []struct{ flag, value, want string }{
		{"-arch", "bogus", `unknown architecture "bogus"`},
		{"-model", "XX", `unknown model "XX"`},
	} {
		prof := filepath.Join(dir, tc.value+".prof")
		err := run([]string{"replay", tc.flag, tc.value, "-cpuprofile", prof, file})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("replay %s %s: err = %v, want it to contain %s", tc.flag, tc.value, err, tc.want)
		}
		if _, err := os.Stat(prof); err == nil {
			t.Errorf("replay %s %s wrote a CPU profile before failing", tc.flag, tc.value)
		}
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
		{[]string{"replay", "-window", "0", file}, []string{"-window", "got 0"}},
		{[]string{"replay", "-window", "-5", file}, []string{"-window", "got -5"}},
		// An absurd DS window is refused before the replay allocates its
		// reorder-buffer ring.
		{[]string{"replay", "-arch", "DS", "-window", "4000000000", file}, []string{"-window", "got 4000000000"}},
		{[]string{"replay", "-width", "0", file}, []string{"-width", "got 0"}},
		{[]string{"replay", "-arch", "SS", "-width", "-2", file}, []string{"-width", "got -2"}},
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

	// The container checks reach every consumer, streaming replay included:
	// bytes after the footer, and a header bit flip that only the footer CRC
	// covers, fail info and each model's replay.
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	cat := filepath.Join(dir, "cat.trace")
	flip := filepath.Join(dir, "flip.trace")
	flipped := append([]byte(nil), raw...)
	flipped[8] ^= 0x01 // the header's CPU field
	if err := os.WriteFile(cat, append(append([]byte(nil), raw...), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flip, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, want string }{
		{cat, "trailing bytes after CRC footer"},
		{flip, "CRC mismatch"},
	} {
		for _, cmd := range [][]string{{"info"}, {"replay", "-arch", "BASE"},
			{"replay", "-arch", "SSBR"}, {"replay", "-arch", "SS"}, {"replay", "-arch", "DS"}} {
			args := append(cmd, tc.path)
			if err := run(args); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: err = %v, want %q", args, err, tc.want)
			}
		}
	}
}
