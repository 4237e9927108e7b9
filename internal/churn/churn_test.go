package churn

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cxlpool/internal/sim"
)

func TestParseTraceCanonical(t *testing.T) {
	in := strings.Join([]string{
		"# canonical trace",
		"0 arrive a 5 0",
		"0 arrive b 2.5 1",
		"",
		"2 arrive c 10 0",
		"2 depart a",
		"3 depart c",
	}, "\n")
	tr, err := ParseTrace([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	want := strings.Join([]string{
		"0 arrive a 5 0",
		"0 arrive b 2.5 1",
		"2 depart a",
		"2 arrive c 10 0",
		"3 depart c",
	}, "\n") + "\n"
	if got := tr.Text(); got != want {
		t.Fatalf("canonical text:\n%s\nwant:\n%s", got, want)
	}
	// Canonical text re-parses to identical bytes.
	tr2, err := ParseTrace([]byte(tr.Text()))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Text() != tr.Text() {
		t.Fatalf("write-parse-write drift:\n%s\nvs\n%s", tr2.Text(), tr.Text())
	}
}

func TestTraceAt(t *testing.T) {
	tr, err := ParseTrace([]byte("0 arrive a 5 0\n2 depart a\n2 arrive b 1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if evs := tr.At(0); len(evs) != 1 || evs[0].Tenant != "a" || evs[0].Op != OpArrive {
		t.Fatalf("At(0) = %+v", evs)
	}
	if evs := tr.At(1); len(evs) != 0 {
		t.Fatalf("At(1) = %+v, want empty", evs)
	}
	evs := tr.At(2)
	if len(evs) != 2 || evs[0].Op != OpDepart || evs[1].Op != OpArrive {
		t.Fatalf("At(2) = %+v, want depart then arrive", evs)
	}
	if h := tr.Horizon(); h != 3 {
		t.Fatalf("Horizon = %d, want 3", h)
	}
}

func TestParseTraceRejections(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown op", "0 dance a 5 0\n"},
		{"bad epoch", "x arrive a 5 0\n"},
		{"negative epoch", "-1 arrive a 5 0\n"},
		{"decreasing epochs", "3 arrive a 5 0\n1 arrive b 5 0\n"},
		{"missing fields", "0 arrive a 5\n"},
		{"extra fields", "0 depart a 5\n"},
		{"zero demand", "0 arrive a 0 0\n"},
		{"negative demand", "0 arrive a -3 0\n"},
		{"nan demand", "0 arrive a NaN 0\n"},
		{"inf demand", "0 arrive a +Inf 0\n"},
		{"bad demand", "0 arrive a five 0\n"},
		{"negative home", "0 arrive a 5 -1\n"},
		{"bad home", "0 arrive a 5 x\n"},
		{"depart unknown", "0 depart ghost\n"},
		{"depart twice", "0 arrive a 5 0\n1 depart a\n2 depart a\n"},
		{"zero lifetime", "0 arrive a 5 0\n0 depart a\n"},
		{"rearrival", "0 arrive a 5 0\n1 depart a\n2 arrive a 5 0\n"},
		{"duplicate arrival", "0 arrive a 5 0\n1 arrive a 5 0\n"},
	}
	for _, c := range cases {
		if _, err := ParseTrace([]byte(c.in)); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.in)
		} else if !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: error %v does not wrap ErrBadTrace", c.name, err)
		}
	}
}

func TestTraceValidateRacks(t *testing.T) {
	tr, err := ParseTrace([]byte("0 arrive a 5 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(4); err != nil {
		t.Fatalf("Validate(4) = %v", err)
	}
	if err := tr.Validate(3); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("Validate(3) = %v, want ErrBadTrace", err)
	}
}

func TestTraceStats(t *testing.T) {
	tr, err := ParseTrace([]byte("0 arrive a 4 0\n0 arrive b 8 2\n2 depart a\n2 arrive c 6 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Arrivals != 3 || s.Departures != 1 || s.PeakLive != 2 || s.EndLive != 2 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.MaxHome != 2 || s.MeanGbps != 6 {
		t.Fatalf("Stats = %+v, want MaxHome 2 MeanGbps 6", s)
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{Epochs: 40, Racks: 4, Rate: 5, MeanLife: 6, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Fatal("same config generated different traces")
	}
	if a.Len() == 0 {
		t.Fatal("rate-5 40-epoch trace generated no events")
	}
	// A generated trace must survive its own parser: recording and
	// replaying cannot tell them apart.
	rt, err := ParseTrace([]byte(a.Text()))
	if err != nil {
		t.Fatalf("generated trace does not re-parse: %v", err)
	}
	if rt.Text() != a.Text() {
		t.Fatal("generated trace is not canonical")
	}
	if err := a.Validate(cfg.Racks); err != nil {
		t.Fatalf("generated trace has out-of-fleet homes: %v", err)
	}
	other, err := Generate(GenConfig{Epochs: 40, Racks: 4, Rate: 5, MeanLife: 6, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if other.Text() == a.Text() {
		t.Fatal("different seeds generated identical traces")
	}
}

func TestGenerateVariants(t *testing.T) {
	base := GenConfig{Epochs: 60, Racks: 4, Rate: 4, MeanLife: 5, Seed: 7}
	bursty := base
	bursty.Arrivals = ArrivalsBursty
	pareto := base
	pareto.Lifetime = LifePareto
	diurnal := base
	diurnal.Diurnal = 0.8
	for _, tc := range []struct {
		name string
		cfg  GenConfig
	}{
		{"poisson", base}, {"bursty", bursty}, {"pareto", pareto}, {"diurnal", diurnal},
	} {
		tr, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := tr.Stats()
		if s.Arrivals == 0 {
			t.Fatalf("%s: no arrivals", tc.name)
		}
		for _, e := range tr.Events() {
			if e.Op == OpArrive && (e.Gbps <= 0 || e.Gbps > genGbpsCap || math.IsNaN(e.Gbps)) {
				t.Fatalf("%s: demand %g outside (0, %g]", tc.name, e.Gbps, genGbpsCap)
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cases := []GenConfig{
		{Epochs: 0, Racks: 4},
		{Epochs: 10, Racks: 0},
		{Epochs: 10, Racks: 4, Rate: -1},
		{Epochs: 10, Racks: 4, Rate: maxRate + 1},
		{Epochs: 10, Racks: 4, MeanLife: 0.5},
		{Epochs: 10, Racks: 4, Diurnal: 1.5},
		{Epochs: 10, Racks: 4, Rate: math.NaN()},
		{Epochs: 10, Racks: 4, Rate: math.Inf(1)},
		{Epochs: 10, Racks: 4, Rate: math.Inf(-1)},
		{Epochs: 10, Racks: 4, MeanLife: math.NaN()},
		{Epochs: 10, Racks: 4, MeanLife: math.Inf(1)},
		{Epochs: 10, Racks: 4, MeanLife: math.Inf(-1)},
		{Epochs: 10, Racks: 4, Diurnal: math.NaN()},
		{Epochs: 10, Racks: 4, Diurnal: math.Inf(1)},
		{Epochs: 10, Racks: 4, Diurnal: math.Inf(-1)},
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: Generate(%+v) error = %v, want ErrBadTrace", i, cfg, err)
		}
	}
}

func TestParseKinds(t *testing.T) {
	for _, s := range []string{"poisson", "bursty"} {
		k, err := ParseArrivalKind(s)
		if err != nil || k.String() != s {
			t.Fatalf("ParseArrivalKind(%q) = %v, %v", s, k, err)
		}
	}
	for _, s := range []string{"geometric", "pareto"} {
		k, err := ParseLifetimeKind(s)
		if err != nil || k.String() != s {
			t.Fatalf("ParseLifetimeKind(%q) = %v, %v", s, k, err)
		}
	}
	if _, err := ParseArrivalKind("uniform"); err == nil {
		t.Fatal("ParseArrivalKind accepted unknown kind")
	}
	if _, err := ParseLifetimeKind("uniform"); err == nil {
		t.Fatal("ParseLifetimeKind accepted unknown kind")
	}
}

func TestGeometricLifetimeMean(t *testing.T) {
	// The geometric sampler's empirical mean must sit near MeanLife —
	// a distribution-shape pin, not an exact-value golden.
	cfg := GenConfig{Epochs: 1, Racks: 1, MeanLife: 8}.withDefaults()
	rng := sim.NewRand(1)
	sum, n := 0, 20000
	for i := 0; i < n; i++ {
		l := lifetime(rng, cfg)
		if l < 1 {
			t.Fatalf("lifetime %d < 1", l)
		}
		sum += l
	}
	mean := float64(sum) / float64(n)
	if mean < 7 || mean > 9 {
		t.Fatalf("geometric mean lifetime %.2f, want ~8", mean)
	}
}

func TestParetoLifetimeBounds(t *testing.T) {
	cfg := GenConfig{Epochs: 1, Racks: 1, MeanLife: 6, Lifetime: LifePareto}.withDefaults()
	rng := sim.NewRand(2)
	limit := int(lifeCapFactor * cfg.MeanLife)
	sawTail := false
	for i := 0; i < 20000; i++ {
		l := lifetime(rng, cfg)
		if l < 1 || l > limit {
			t.Fatalf("pareto lifetime %d outside [1, %d]", l, limit)
		}
		if l > int(4*cfg.MeanLife) {
			sawTail = true
		}
	}
	if !sawTail {
		t.Fatal("pareto lifetimes never exceeded 4x the mean — tail missing")
	}
}
