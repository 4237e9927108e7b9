package lint

import (
	"strings"
	"testing"
)

// Each analyzer is pinned by an analysistest-style fixture: every line
// that must produce a finding carries a `// want "regex"` comment, and
// the harness fails on both unmatched findings and unmatched wants —
// the failing-before/passing-after pairs live side by side in the
// fixture sources.

func TestMapIterFixture(t *testing.T) {
	runFixture(t, "orch", []*Analyzer{MapIter})
}

func TestMapIterIgnoresNonCriticalPackages(t *testing.T) {
	runFixture(t, "other", []*Analyzer{MapIter})
}

func TestWallClockFixture(t *testing.T) {
	runFixture(t, "internal/clockuse", []*Analyzer{WallClock})
}

func TestWallClockAllowsCmd(t *testing.T) {
	runFixture(t, "cmd/tool", []*Analyzer{WallClock})
}

func TestBufOwnFixture(t *testing.T) {
	runFixture(t, "bufuse", []*Analyzer{BufOwn})
}

func TestSimHandleFixture(t *testing.T) {
	runFixture(t, "simuse", []*Analyzer{SimHandle})
}

// benchroot stands in for the nested bench module, a caller root.
func TestTestOnlyFixture(t *testing.T) {
	runFixture(t, "internal/export", []*Analyzer{TestOnly}, "benchroot")
}

// Without the caller root, what only it calls reads as unreferenced.
func TestTestOnlyCountsCallerRoots(t *testing.T) {
	pkg, refs, err := loadFixture("internal/export")
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for _, d := range Check(pkg, []*Analyzer{TestOnly}, refs) {
		for _, name := range []string{"BenchOnly", "Start", "Load"} {
			if strings.Contains(d.Message, "exported "+name+" ") {
				flagged = append(flagged, name)
			}
		}
	}
	if len(flagged) != 3 {
		t.Errorf("without the caller root, flagged %q; want BenchOnly, Start and Load", flagged)
	}
}

// A testonly directive without a reason is a finding and suppresses
// nothing.
func TestTestOnlyDirectiveNeedsReason(t *testing.T) {
	pkg, refs, err := loadFixture("internal/noreason")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range Check(pkg, []*Analyzer{TestOnly}, refs) {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	want := []string{
		"lint: //lint:allow testonly requires a reason",
		"testonly: exported Kept is referenced by nothing",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings = %q, want %q", got, want)
	}
}

// The full suite over each fixture must yield exactly the findings the
// per-analyzer runs assert: no analyzer fires outside its domain.
func TestFullSuiteOnFixtures(t *testing.T) {
	for _, path := range []string{"orch", "other", "internal/clockuse", "bufuse", "simuse"} {
		runFixture(t, path, All())
	}
	runFixture(t, "internal/export", All(), "benchroot")
}

func TestAnalyzerNames(t *testing.T) {
	want := []string{"mapiter", "wallclock", "bufown", "simhandle", "testonly"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}

// Malformed directives are findings in their own right and suppress
// nothing. (Asserted directly: a directive comment cannot also carry a
// want comment.)
func TestBadDirectives(t *testing.T) {
	pkg, _, err := loadFixture("baddir/orch")
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(pkg, []*Analyzer{MapIter}, nil)
	var bad, mapiter []string
	for _, d := range diags {
		switch d.Analyzer {
		case "lint":
			bad = append(bad, d.Message)
		case "mapiter":
			mapiter = append(mapiter, d.Message)
		}
	}
	wantBad := []string{
		"//lint:ordered requires a reason",
		"//lint:allow requires an analyzer name and a reason",
		`//lint:allow names unknown analyzer "bogus"`,
		`unknown //lint: directive "frobnicate"`,
		"//lint:allow mapiter requires a reason",
		"empty //lint: directive",
	}
	for _, w := range wantBad {
		found := false
		for _, m := range bad {
			if m == w {
				found = true
			}
		}
		if !found {
			t.Errorf("missing bad-directive finding %q in %q", w, bad)
		}
	}
	if len(bad) != len(wantBad) {
		t.Errorf("bad-directive findings = %d, want %d: %q", len(bad), len(wantBad), bad)
	}
	if len(mapiter) != 6 {
		t.Errorf("mapiter findings = %d, want 6 (malformed directives must not suppress)", len(mapiter))
	}
}
