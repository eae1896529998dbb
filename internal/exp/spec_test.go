package exp

// Tests for CellSpec, the harness's one cell type: the validity check
// every replay applies, the JSON round trip of every spec list, and the
// stability of the cache keys specs address.

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
)

// allSpecLists is every spec constructor's output, by name.
func allSpecLists() map[string][]CellSpec {
	lists := map[string][]CellSpec{
		"Figure3Specs":     Figure3Specs(),
		"Figure4Specs":     Figure4Specs(),
		"Issue4Specs":      Issue4Specs(),
		"SCPrefetchSpecs":  SCPrefetchSpecs(),
		"analyzeSpecs":     analyzeSpecs(),
		"storeBufferSpecs": storeBufferSpecs(),
		"mshrSpecs":        mshrSpecs(),
		"btbSpecs":         btbSpecs(),
	}
	for _, m := range []consistency.Model{consistency.SC, consistency.PC, consistency.WO, consistency.RC} {
		lists["WindowSweepSpecs("+m.String()+")"] = WindowSweepSpecs(m)
	}
	return lists
}

func TestCellSpecValidateRejects(t *testing.T) {
	ok := CellSpec{Label: "x", Arch: "DS", Model: "RC", Window: 64}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(s *CellSpec)
		want string
	}{
		{"unknown arch", func(s *CellSpec) { s.Arch = "OOO" }, "architecture"},
		{"empty arch", func(s *CellSpec) { s.Arch = "" }, "architecture"},
		{"unknown model", func(s *CellSpec) { s.Model = "TSO" }, "TSO"},
		{"negative window", func(s *CellSpec) { s.Window = -1 }, "window"},
		{"huge window", func(s *CellSpec) { s.Window = 1<<20 + 1 }, "window"},
		{"negative issue width", func(s *CellSpec) { s.IssueWidth = -1 }, "issue width"},
		{"huge issue width", func(s *CellSpec) { s.IssueWidth = 65 }, "issue width"},
		{"negative store buffer", func(s *CellSpec) { s.StoreBufDepth = -1 }, "store buffer"},
		{"huge store buffer", func(s *CellSpec) { s.StoreBufDepth = 1<<20 + 1 }, "store buffer"},
		{"negative MSHRs", func(s *CellSpec) { s.MSHRs = -4 }, "MSHR"},
		{"huge MSHRs", func(s *CellSpec) { s.MSHRs = 1<<20 + 1 }, "MSHR"},
		{"negative BTB", func(s *CellSpec) { s.BTBEntries = -64 }, "BTB"},
		{"huge BTB", func(s *CellSpec) { s.BTBEntries = 1 << 21 }, "BTB"},
		{"BTB not a multiple of the ways", func(s *CellSpec) { s.BTBEntries = 6 }, "geometry"},
		{"BTB sets not a power of two", func(s *CellSpec) { s.BTBEntries = 100 }, "power of two"},
	}
	for _, tc := range cases {
		s := ok
		tc.edit(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: %+v accepted", tc.name, s)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// A rejected spec never replays: RunSpec and SpecColumn refuse it.
		if _, err := RunSpec(nil, s, nil); err == nil {
			t.Errorf("%s: RunSpec accepted an invalid spec", tc.name)
		}
		if _, err := SpecColumn(s, cpu.Breakdown{}, 0); err == nil {
			t.Errorf("%s: SpecColumn accepted an invalid spec", tc.name)
		}
	}
}

// TestCellSpecListsRoundTrip checks every constructor's specs: valid,
// uniquely labelled within their sweep (the label keys fault sites, board
// jobs and failures), and unchanged by a JSON round trip, which cellKey
// relies on.
func TestCellSpecListsRoundTrip(t *testing.T) {
	for name, specs := range allSpecLists() {
		seen := make(map[string]bool, len(specs))
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: constructor emitted an invalid spec: %v", name, err)
			}
			if seen[s.Label] {
				t.Errorf("%s: label %q appears twice", name, s.Label)
			}
			seen[s.Label] = true
		}
		js, err := json.Marshal(specs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back []CellSpec
		if err := json.Unmarshal(js, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(specs, back) {
			t.Errorf("%s: JSON round trip changed the specs:\n%+v\n%+v", name, specs, back)
		}
	}
}

// TestCellKeyPinned pins the exact cache key of one spec. The knobs are
// omitempty, so a spec that leaves a knob at its default encodes the same
// as before the knob existed; dropping omitempty (or renaming a field)
// would silently invalidate every persistent store, and fails here.
func TestCellKeyPinned(t *testing.T) {
	var spec CellSpec
	for _, s := range Figure3Specs() {
		if s.Label == "RC-DS64" {
			spec = s
		}
	}
	const want = `trace=0123456789abcdef|spec={"label":"RC-DS64","arch":"DS","model":"RC","window":64}`
	if got := cellKey("0123456789abcdef", spec); got != want {
		t.Errorf("cellKey = %s\nwant     %s", got, want)
	}
}
