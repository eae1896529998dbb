package main

// CLI-level robustness tests: up-front flag validation, cooperative
// cancellation via -timeout (the in-process equivalent of the SIGINT e2e
// check in CI), and the interrupted-run ledger record.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynsched/internal/obs"
)

func TestCLIFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-j", "-2", "table1"}, "-j"},
		{[]string{"-retries", "-1", "table1"}, "-retries"},
		{[]string{"-timeout", "-5s", "table1"}, "-timeout"},
		{[]string{"-cpus", "0", "table1"}, "-cpus"},
		{[]string{"-tracecpu", "-3", "table1"}, "-tracecpu"},
		{[]string{"-tracecpu", "3", "-cpus", "2", "table1"}, "-tracecpu"},
		{[]string{"-tracecpu", "2", "-cpus", "2", "table1"}, "-tracecpu"},
		{[]string{"-latency", "0", "table1"}, "-latency"},
		{[]string{"-latency", "4294967346", "table1"}, "-latency"},
	}
	for _, tc := range cases {
		_, err := captureRun(t, tc.args...)
		if err == nil {
			t.Errorf("%v accepted, want a usage error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to name %s", tc.args, err, tc.want)
		}
	}
	// An unparsable duration is rejected by the flag package itself.
	if _, err := captureRun(t, "-timeout", "banana", "table1"); err == nil {
		t.Error("-timeout banana accepted")
	}
}

// TestCLITimeoutCancelsRun drives the full cancellation path: a 1 ns budget
// expires before any simulation starts, the run exits with a context error,
// and the ledger still gets a readable record marked interrupted.
func TestCLITimeoutCancelsRun(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "runs.jsonl")
	_, err := captureRun(t, "-scale", "small", "-apps", "mp3d",
		"-timeout", "1ns", "-ledger", ledger, "fig3")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	recs, rerr := obs.ReadLedger(ledger)
	if rerr != nil {
		t.Fatalf("interrupted run left an unreadable ledger: %v", rerr)
	}
	if len(recs) != 1 || !recs[0].Interrupted {
		t.Fatalf("ledger records = %+v, want one record marked interrupted", recs)
	}
}

// A generous timeout must not disturb a normal run.
func TestCLITimeoutGenerousIsHarmless(t *testing.T) {
	out, err := captureRun(t, "-scale", "small", "-apps", "lu", "-timeout", "10m", "table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("output:\n%s", out)
	}
}

// TestCLIRetriesFlagAccepted checks -retries reaches the harness without
// changing a healthy run's output.
func TestCLIRetriesFlagAccepted(t *testing.T) {
	plain, err := captureRun(t, "-scale", "small", "-apps", "lu", "fig3")
	if err != nil {
		t.Fatal(err)
	}
	retried, err := captureRun(t, "-scale", "small", "-apps", "lu", "-retries", "2", "fig3")
	if err != nil {
		t.Fatal(err)
	}
	if plain != retried {
		t.Errorf("-retries changed a healthy run's output:\n--- plain ---\n%s\n--- retried ---\n%s", plain, retried)
	}
}

// The ledger must survive an interrupted append attempt into a directory
// that appears mid-flight; more importantly, a record appended after an
// interrupted one must still parse — O_APPEND keeps records whole.
func TestCLILedgerAppendsAfterInterruptedRun(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "runs.jsonl")
	if _, err := captureRun(t, "-scale", "small", "-apps", "mp3d",
		"-timeout", "1ns", "-ledger", ledger, "fig3"); err == nil {
		t.Fatal("timed-out run reported success")
	}
	if _, err := captureRun(t, "-scale", "small", "-apps", "lu",
		"-ledger", ledger, "table1"); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !recs[0].Interrupted || recs[1].Interrupted {
		t.Fatalf("ledger = %+v, want [interrupted, clean]", recs)
	}
	if fi, err := os.Stat(ledger); err != nil || fi.Size() == 0 {
		t.Fatalf("ledger missing: %v", err)
	}
}
