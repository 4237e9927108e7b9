package experiments

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"cxlpool/internal/params"
	"cxlpool/internal/runner"
)

func TestFleetConfigReadsRatio(t *testing.T) {
	p := params.New(
		params.Spec{Name: "racks", Kind: params.Int, Def: "4"},
		params.Spec{Name: "workers", Kind: params.Int, Def: "0"},
		params.Spec{Name: "seed", Kind: params.Int, Def: "42"},
		params.Spec{Name: "ratio", Kind: params.Float, Def: "4"},
	)
	cfg, err := fleetConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Oversub != 4 {
		t.Fatalf("Oversub = %g, want 4 from -ratio", cfg.Oversub)
	}
}

// Every float knob of every scenario refuses non-finite values at
// parse time; downstream range checks need not see a NaN.
func TestFloatKnobsRejectNonFinite(t *testing.T) {
	n := 0
	for _, s := range All() {
		p := s.NewParams()
		for _, sp := range p.Specs() {
			if sp.Kind != params.Float {
				continue
			}
			n++
			for _, v := range []string{"NaN", "Inf", "-Inf"} {
				if err := p.Set(sp.Name, v); !errors.Is(err, params.ErrBadParam) {
					t.Errorf("%s -%s=%s: err = %v, want ErrBadParam", s.Name, sp.Name, v, err)
				}
			}
		}
	}
	if n < 5 {
		t.Fatalf("found %d float knobs, want at least the five fleet ones", n)
	}
}

// addPoolingBenefit runs the isolated baseline once and shares it by
// every row of E14's rack-count sweep and E18's ratio sweep. That holds
// only while isolated hot-rack goodput is independent of the rack count
// and the spine ratio: isolated racks never interact. Pin it bit for
// bit, so a change that lets isolated racks interact fails here rather
// than silently skewing the shared column.
func TestIsolatedGoodputIgnoresRacksAndRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	type run struct {
		scenario  string
		seed      int64
		overrides []any
	}
	var runs []run
	for _, seed := range []int64{42, 2027} {
		for _, n := range []int{2, 3, 4, 6, 8} {
			runs = append(runs, run{"cluster", seed, []any{"racks", n, "topo", "uniform"}})
		}
		for _, rt := range []float64{0, 1, 4} {
			runs = append(runs, run{"oversub", seed, []any{"ratio", rt}})
		}
	}
	g := make([]float64, len(runs))
	if err := (runner.Pool{}).ForEach(len(runs), func(i int) error {
		s, ok := Lookup(runs[i].scenario)
		if !ok {
			return fmt.Errorf("no scenario %q", runs[i].scenario)
		}
		p := s.NewParams()
		if err := p.Set("seed", fmt.Sprint(runs[i].seed)); err != nil {
			return err
		}
		var err error
		g[i], err = hotGoodput(p, false, runs[i].overrides...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	type key struct {
		scenario string
		seed     int64
	}
	first := map[key]int{}
	for i, r := range runs {
		k := key{r.scenario, r.seed}
		j, ok := first[k]
		if !ok {
			first[k] = i
			continue
		}
		if math.Float64bits(g[i]) != math.Float64bits(g[j]) {
			t.Errorf("%s seed %d: isolated goodput at %v = %.17g, want %.17g as at %v",
				r.scenario, r.seed, r.overrides, g[i], g[j], runs[j].overrides)
		}
	}
}
