package obs

// Tests for the ledger under concurrent appenders — two hidelat runs
// sharing one -ledger file. Each
// record goes out in a single O_APPEND write, so concurrent appenders must
// never interleave within a record, and a crash can tear at most the final
// line, which ReadLedger drops. Meaningful under -race.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestLedgerConcurrentAppenders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := ledgerRec(fmt.Sprintf("w%d-r%d", w, i), fmt.Sprintf("2026-08-09T%02d:%02d:00Z", w, i))
				if err := AppendLedger(path, rec); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Every record must survive intact: the reader parses all of them, none
	// are duplicated or lost, and no line holds a partial record.
	recs, err := ReadLedger(path)
	if err != nil {
		t.Fatalf("ReadLedger after concurrent appends: %v", err)
	}
	if len(recs) != writers*each {
		t.Fatalf("read %d records, want %d", len(recs), writers*each)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("record %q duplicated", r.ID)
		}
		seen[r.ID] = true
	}

	// Byte-level check that no two appends interleaved: every line is one
	// complete record — it starts with the record opener and ends with a
	// closing brace, with exactly one record-start marker per line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("ledger does not end with a newline")
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != writers*each {
		t.Fatalf("%d lines, want %d", len(lines), writers*each)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, `{"schema"`) || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d is not one complete record: %q", i, line)
		}
		if strings.Count(line, `{"schema"`) != 1 {
			t.Fatalf("line %d holds interleaved records: %q", i, line)
		}
	}
}

// A writer killed mid-append tears only the final line; appenders that wrote
// before the crash lose nothing and ReadLedger drops exactly the tail.
func TestLedgerConcurrentAppendersThenTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	const n = 16
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := ledgerRec(fmt.Sprintf("r%d", w), fmt.Sprintf("2026-08-09T10:%02d:00Z", w))
			if err := AppendLedger(path, rec); err != nil {
				t.Errorf("append %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()

	// Simulate the crash: a final record cut off mid-write, no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":1,"id":"torn","time":"2026-08-09T11:`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := ReadLedger(path)
	if err != nil {
		t.Fatalf("ReadLedger with torn tail: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want the %d intact ones", len(recs), n)
	}
	for _, r := range recs {
		if r.ID == "torn" {
			t.Fatal("torn tail surfaced as a record")
		}
	}
}
