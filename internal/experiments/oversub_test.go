package experiments

import (
	"strings"
	"testing"

	"cxlpool/internal/report"
)

func oversubSeries(t *testing.T, rep *report.Report) report.Series {
	t.Helper()
	for _, s := range rep.Series {
		if s.Name == "pooling_benefit_vs_oversub" {
			return s
		}
	}
	t.Fatal("pooling_benefit_vs_oversub series missing")
	return report.Series{}
}

func TestOversubOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	rep := runScenario(t, "oversub", 42, map[string]string{"epochs": "4"})
	out := rep.Text()
	for _, needle := range []string{
		"E18: spine oversubscription", "ratio 4:1",
		"uplink", "peak util", "pooling benefit vs oversubscription",
		"non-blocking", "8:1",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("oversub output missing %q:\n%s", needle, out)
		}
	}
}

// The headline acceptance criterion: the pooling-benefit curve bends
// as oversubscription grows — full bisection keeps (nearly) the
// non-blocking benefit, 8:1 gives a measurable share of it back.
func TestOversubBenefitCurveBends(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	rep := runScenario(t, "oversub", 42, map[string]string{"epochs": "1"})
	s := oversubSeries(t, rep)
	if len(s.Points) != 5 {
		t.Fatalf("series has %d points, want 5 (ratios 0,1,2,4,8)", len(s.Points))
	}
	byRatio := func(r float64) float64 {
		for _, pt := range s.Points {
			if pt[0] == r {
				return pt[1]
			}
		}
		t.Fatalf("ratio %g missing from series", r)
		return 0
	}
	nb, full, eight := byRatio(0), byRatio(1), byRatio(8)
	if nb <= 1 {
		t.Fatalf("non-blocking benefit %.2f, want federation to win without contention", nb)
	}
	if full < nb*0.95 {
		t.Errorf("full-bisection benefit %.2f fell below 95%% of non-blocking %.2f", full, nb)
	}
	if eight >= full {
		t.Errorf("curve did not bend: benefit at 8:1 (%.2f) >= at 1:1 (%.2f)", eight, full)
	}
}

// Ratio-sweep output must be identical at any worker count (the sweep
// fan-out writes disjoint slots; this pins it).
func TestOversubWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	seq := runScenario(t, "oversub", 42, map[string]string{"epochs": "2", "workers": "1"}).Text()
	par := runScenario(t, "oversub", 42, map[string]string{"epochs": "2", "workers": "4"}).Text()
	if seq != par {
		t.Fatalf("oversub output differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", seq, par)
	}
}
