package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestChurnOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	rep := runScenario(t, "churn", 42, map[string]string{"epochs": "12"})
	out := rep.Text()
	for _, needle := range []string{
		"E17: tenant churn", "schedule:", "admission: cached headroom",
		"no-capacity", "unservable", "bind-failed",
		"autoscale:", "admissions:", "latency p50",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("churn output missing %q:\n%s", needle, out)
		}
	}
	// The headline scalars the acceptance criteria name.
	if scalar(t, rep, "admissions.per_sec") <= 0 {
		t.Error("no admissions per second")
	}
	p50 := scalar(t, rep, "admit_latency.p50_us")
	p95 := scalar(t, rep, "admit_latency.p95_us")
	p99 := scalar(t, rep, "admit_latency.p99_us")
	if p50 <= 0 || p95 < p50 || p99 < p95 {
		t.Errorf("latency percentiles not ordered: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
	if scalar(t, rep, "admissions.total") <= 0 {
		t.Error("no admissions recorded")
	}
}

// The tentpole's replay contract at scenario level: a run that records
// its generated schedule and a second run replaying that file render
// byte-identical report bodies — generated and replayed streams are
// indistinguishable downstream of the Source interface.
func TestChurnRecordReplayByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	trace := filepath.Join(t.TempDir(), "recorded.trace")
	gen := runScenario(t, "churn", 7, map[string]string{
		"epochs": "10", "arrivals": "bursty", "lifetime": "pareto",
		"diurnal": "0.5", "record": trace,
	})
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("-record did not write the trace: %v", err)
	}
	// Replay under the same seed (the seed also drives the rack
	// datapath simulation, so it is part of the run's identity — the
	// trace only replaces the generator).
	rep := runScenario(t, "churn", 7, map[string]string{
		"epochs": "10", "trace": trace,
	})
	if gen.Text() != rep.Text() {
		t.Fatalf("replayed report differs from generated run:\n--- generated\n%s\n--- replayed\n%s",
			gen.Text(), rep.Text())
	}
}

// E17 must be byte-identical at any worker count, like every scenario.
func TestChurnWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	a := runScenario(t, "churn", 42, map[string]string{"workers": "1", "diurnal": "0.4"}).Text()
	b := runScenario(t, "churn", 42, map[string]string{"workers": "4", "diurnal": "0.4"}).Text()
	if a != b {
		t.Fatal("churn output differs between workers=1 and workers=4")
	}
}

// The sweep driver over E17: the rate axis crosses cleanly and the
// points are byte-identical at any sweep worker count.
func TestChurnSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	s, _ := Lookup("churn")
	base := s.NewParams()
	if err := base.Set("epochs", "8"); err != nil {
		t.Fatal(err)
	}
	axes := []Axis{{Name: "rate", Values: []string{"2", "6"}}}
	run := func(workers int) string {
		pts, err := Sweep(context.Background(), s, base, axes, workers)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, pt := range pts {
			b.WriteString(pt.Report.Text())
		}
		return b.String()
	}
	a, b := run(1), run(4)
	if a != b {
		t.Fatal("sweep churn output differs across sweep worker counts")
	}
	if !strings.Contains(a, "E17") {
		t.Fatal("sweep points missing churn output")
	}
}

func TestChurnBadTraceRejected(t *testing.T) {
	s, _ := Lookup("churn")
	p := s.NewParams()
	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("0 dance t0 5 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("trace", bad); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), p); err == nil {
		t.Fatal("malformed trace accepted")
	}
	// A trace whose homes exceed the fleet is rejected up front too.
	p2 := s.NewParams()
	wide := filepath.Join(t.TempDir(), "wide.trace")
	if err := os.WriteFile(wide, []byte("0 arrive t0 5 63\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p2.Set("trace", wide); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), p2); err == nil {
		t.Fatal("trace homed outside the fleet accepted")
	}
}
