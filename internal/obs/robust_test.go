package obs

// Tests for the crash-safety layer: torn-tail-tolerant ledger reads, atomic
// artifact writes, and graceful server shutdown.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func ledgerRec(id, tm string) LedgerRecord {
	return LedgerRecord{Schema: LedgerSchema, ID: id, Time: tm, Cmd: "fig3", MetricsFNV: "feed"}
}

func TestReadLedgerDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := AppendLedger(path, ledgerRec("a", "2026-08-06T01:00:00Z")); err != nil {
		t.Fatal(err)
	}
	if err := AppendLedger(path, ledgerRec("b", "2026-08-06T02:00:00Z")); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer killed mid-append: a third record torn partway
	// through, with no trailing newline.
	line, _ := json.Marshal(ledgerRec("c", "2026-08-06T03:00:00Z"))
	line[len(line)/4] ^= 1 // bit flip too, for good measure
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line[:len(line)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := ReadLedger(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(recs) != 2 || recs[0].ID != "a" || recs[1].ID != "b" {
		t.Fatalf("recs = %+v, want the two intact records", recs)
	}
}

func TestReadLedgerRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	line, _ := json.Marshal(ledgerRec("a", "2026-08-06T01:00:00Z"))
	content := string(line[:len(line)/2]) + "\n" + string(line) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLedger(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestReadLedgerTornOnlyRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(`{"schema":1,"id":"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLedger(path); err == nil {
		t.Fatal("ledger holding only a torn record accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A failed write leaves the previous content and no temp litter.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write clobbered the file: %q", got)
	}
	assertNoTempFiles(t, dir)

	// A successful write replaces the content.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("content = %q, want new", got)
	}
	assertNoTempFiles(t, dir)
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestWriteMetricsFileAtomic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x.y").Add(3)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := WriteMetricsFile(reg, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if snap.Counters["x.y"] != 3 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

func TestServerShutdownGraceful(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", ServerState{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
	// Nil-safety mirrors Close.
	var nilSrv *Server
	if err := nilSrv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
