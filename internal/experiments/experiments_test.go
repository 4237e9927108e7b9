package experiments

import (
	"bytes"
	"context"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cxlpool/internal/report"
)

func runExp(t *testing.T, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := RunText(&buf, name, 42); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.String()
}

// runScenario runs one registered scenario at the given seed with the
// given parameter overrides, applied in sorted name order, and returns
// its report.
func runScenario(t *testing.T, name string, seed int64, overrides map[string]string) *report.Report {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	p := s.NewParams()
	if err := p.Set("seed", strconv.FormatInt(seed, 10)); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(overrides))
	for n := range overrides {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := p.Set(n, overrides[n]); err != nil {
			t.Fatalf("set %s=%s: %v", n, overrides[n], err)
		}
	}
	rep, err := s.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"figure2", "sqrtn", "figure3", "figure4", "cost",
		"lanes", "memlat", "failover", "ablate", "torless", "pooled", "storage",
		"figure2xl", "cluster", "multirow", "failures", "churn", "oversub"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(all), len(want))
	}
	for i, n := range want {
		if all[i].Name != n {
			t.Errorf("registry[%d] = %q, want %q", i, all[i].Name, n)
		}
		if all[i].Paper == "" {
			t.Errorf("%s has no paper reference", n)
		}
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Fatal("bogus lookup succeeded")
	}
	// The `all` artifact set excludes standalone studies but nothing
	// else: the golden stays pinned to the paper's artifacts while
	// multirow remains reachable by name and sweep.
	arts := Artifacts()
	if len(arts) != len(all)-4 {
		t.Fatalf("artifact set has %d entries, want %d", len(arts), len(all)-4)
	}
	for _, s := range arts {
		if s.Standalone {
			t.Errorf("standalone scenario %q leaked into the artifact set", s.Name)
		}
	}
	if s, ok := Lookup("multirow"); !ok || !s.Standalone {
		t.Fatal("multirow must be registered and standalone")
	}
	if s, ok := Lookup("failures"); !ok || !s.Standalone {
		t.Fatal("failures must be registered and standalone")
	}
	if s, ok := Lookup("churn"); !ok || !s.Standalone {
		t.Fatal("churn must be registered and standalone")
	}
	if s, ok := Lookup("oversub"); !ok || !s.Standalone {
		t.Fatal("oversub must be registered and standalone")
	}
}

func TestSuggestParam(t *testing.T) {
	s, ok := Lookup("multirow")
	if !ok {
		t.Fatal("multirow not registered")
	}
	for _, tc := range []struct {
		in, want string
		close    bool
	}{
		{"rack", "racks", true},
		{"row", "rows", true},
		{"sed", "seed", true},
		{"workrs", "workers", true},
		{"bananas", "", false},
	} {
		got, close := SuggestParam(s, tc.in)
		if close != tc.close {
			t.Errorf("SuggestParam(%q) close = %v, want %v", tc.in, close, tc.close)
			continue
		}
		if close && got != tc.want {
			t.Errorf("SuggestParam(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSuggest(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		close    bool
	}{
		{"figur2", "figure2", true},
		{"cluser", "cluster", true},
		{"storge", "storage", true},
		{"memlatency", "memlat", false}, // distance 4 > limit
		{"zzzzzz", "", false},
	} {
		got, close := Suggest(tc.in)
		if close != tc.close {
			t.Errorf("Suggest(%q) close = %v, want %v", tc.in, close, tc.close)
			continue
		}
		if close && got != tc.want {
			t.Errorf("Suggest(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestScenarioParamsDeclared(t *testing.T) {
	for _, s := range All() {
		p := s.NewParams()
		specs := p.Specs()
		if specs[0].Name != "seed" {
			t.Errorf("%s: first param is %q, want seed", s.Name, specs[0].Name)
		}
		for _, sp := range specs {
			if sp.Help == "" {
				t.Errorf("%s: param %q has no help text", s.Name, sp.Name)
			}
		}
	}
}

func TestFigure3PayloadValidation(t *testing.T) {
	s, _ := Lookup("figure3")
	p := s.NewParams()
	if err := p.Set("payload", "123"); err == nil {
		t.Fatal("payload outside the enum accepted")
	}
	if err := p.Set("payload", "1500"); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
}

func TestFigure2Output(t *testing.T) {
	out := runExp(t, "figure2")
	for _, needle := range []string{"CPU", "Memory", "SSD", "Network", "stranded"} {
		if !strings.Contains(out, needle) {
			t.Errorf("figure2 output missing %q:\n%s", needle, out)
		}
	}
}

func TestSqrtNOutput(t *testing.T) {
	out := runExp(t, "sqrtn")
	if !strings.Contains(out, "N") || !strings.Contains(out, "sqrt") {
		t.Errorf("sqrtn output malformed:\n%s", out)
	}
	// All six group sizes present.
	for _, n := range []string{"1 ", "2 ", "4 ", "8 ", "16", "32"} {
		if !strings.Contains(out, "\n"+n) {
			t.Errorf("sqrtn missing row N=%s", strings.TrimSpace(n))
		}
	}
}

func TestFigure4Output(t *testing.T) {
	out := runExp(t, "figure4")
	if !strings.Contains(out, "p50=") || !strings.Contains(out, "CDF") {
		t.Errorf("figure4 output malformed:\n%s", out)
	}
	// Median in the paper's neighborhood appears in the summary line.
	if !strings.Contains(out, "ns") {
		t.Error("figure4 missing ns units")
	}
}

func TestCostOutput(t *testing.T) {
	out := runExp(t, "cost")
	for _, needle := range []string{"PCIe switch", "CXL pod", "$", "ROI"} {
		if !strings.Contains(out, needle) {
			t.Errorf("cost output missing %q", needle)
		}
	}
}

func TestLanesOutput(t *testing.T) {
	out := runExp(t, "lanes")
	if !strings.Contains(out, "8 lanes") || !strings.Contains(out, "16 lanes") {
		t.Errorf("lanes output missing paper values:\n%s", out)
	}
	if !strings.Contains(out, "NO") {
		t.Error("lanes output missing the infeasible 8x400G row")
	}
}

func TestMemLatencyOutput(t *testing.T) {
	out := runExp(t, "memlat")
	for _, needle := range []string{"DDR5", "CXL direct", "CXL switched"} {
		if !strings.Contains(out, needle) {
			t.Errorf("memlat missing %q", needle)
		}
	}
}

func TestFailoverOutput(t *testing.T) {
	out := runExp(t, "failover")
	if !strings.Contains(out, "downtime") || !strings.Contains(out, "faster than switch") {
		t.Errorf("failover output malformed:\n%s", out)
	}
}

func TestAblationsOutput(t *testing.T) {
	out := runExp(t, "ablate")
	for _, needle := range []string{"ntstore", "write+clflush", "stale", "MHD direct", "CXL switch", "interleave"} {
		if !strings.Contains(out, needle) {
			t.Errorf("ablate missing %q", needle)
		}
	}
}

func TestToRlessOutput(t *testing.T) {
	out := runExp(t, "torless")
	for _, needle := range []string{"single-ToR", "dual-ToR", "ToR-less"} {
		if !strings.Contains(out, needle) {
			t.Errorf("torless missing %q", needle)
		}
	}
}

func TestFigure3PanelOutput(t *testing.T) {
	// One small panel (not the full sweep) to keep test time sane.
	s, ok := Lookup("figure3")
	if !ok {
		t.Fatal("figure3 not registered")
	}
	p := s.NewParams()
	if err := p.Set("payload", "75"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Text()
	if !strings.Contains(out, "DDR") || !strings.Contains(out, "CXL") {
		t.Errorf("figure3 panel missing series:\n%s", out)
	}
	if !strings.Contains(out, "p99 us") {
		t.Error("figure3 panel missing percentile columns")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a := runExp(t, "figure2")
	b := runExp(t, "figure2")
	if a != b {
		t.Fatal("figure2 output not deterministic")
	}
	c := runExp(t, "figure4")
	d := runExp(t, "figure4")
	if c != d {
		t.Fatal("figure4 output not deterministic")
	}
}

func TestPooledNICOutput(t *testing.T) {
	out := runExp(t, "pooled")
	if !strings.Contains(out, "local NIC") || !strings.Contains(out, "pooled NIC") {
		t.Errorf("pooled output malformed:\n%s", out)
	}
	if !strings.Contains(out, "pooling adds") {
		t.Error("pooled output missing delta line")
	}
}

func TestStorageOutput(t *testing.T) {
	out := runExp(t, "storage")
	for _, needle := range []string{"TLC NAND", "fast SCM", "NVMe-oF", "CXL pool", "fabric tax"} {
		if !strings.Contains(out, needle) {
			t.Errorf("storage output missing %q", needle)
		}
	}
}
