package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cxlpool/internal/experiments"
)

// quickScenarios are the artifacts scenarios that each run in under
// 50 ms.
var quickScenarios = []string{"figure2", "sqrtn", "figure4", "cost", "lanes", "memlat"}

// tinyWorkloads are the benchmark's workloads at a size that runs in
// seconds: two epochs per fleet, the quick scenarios for artifacts.
func tinyWorkloads(root string) []workload {
	tiny := func(f fleet) func(int64, *tracer) (instance, error) {
		f.epochs = 2
		return f.setup
	}
	var quick []experiments.Scenario
	for _, name := range quickScenarios {
		s, ok := experiments.Lookup(name)
		if !ok {
			panic("unknown scenario " + name)
		}
		quick = append(quick, s)
	}
	return []workload{
		{name: "fleet-hotspot", minPasses: 1, setup: tiny(fleetHotspot)},
		{name: "churn-admission", minPasses: 1, setup: tiny(churnAdmission)},
		{name: "faults-oversub", minPasses: 1, setup: tiny(faultsOversub)},
		{name: "artifacts", minPasses: 1, setup: artifactsSetup(root, quick)},
	}
}

// TestSmoke runs every workload untraced and traced at a tiny size and
// checks that the output checks pass, that each run's result line
// carries exactly the metrics BENCHMARK.json lists with their units,
// and that every per-layer metric is measured by some workload.
func TestSmoke(t *testing.T) {
	const root = ".."
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	tiny := tinyWorkloads(root)
	if len(tiny) != len(sp.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(tiny))
	}
	full := workloads(root)
	measured := map[string]bool{}
	for i, w := range tiny {
		if w.name != sp.Workloads[i].Name || w.name != full[i].name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, sp.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			out, err := measure(w, runOpts{seed: goldenSeed, traced: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d steps failed: %v", w.name, traced, out.Failed, out.Attempted, out.Problems)
			}
			for name := range out.Metrics {
				measured[name] = true
			}
			var buf bytes.Buffer
			if err := emit(&buf, sp, out); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", w.name, err)
			}
			want := sp.metricsFor(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
	listed := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		listed[m.Name] = true
		if !measured[m.Name] && !strings.HasPrefix(m.Name, "experiments.") {
			t.Errorf("no workload measures %s", m.Name)
		}
	}
	for name := range measured {
		if !listed[name] {
			t.Errorf("%s is measured but not listed in BENCHMARK.json", name)
		}
	}
	for _, s := range experiments.Artifacts() {
		if !listed["experiments."+s.Name+".run_ms"] {
			t.Errorf("BENCHMARK.json does not list experiments.%s.run_ms", s.Name)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
