package experiments

import (
	"errors"
	"testing"

	"cxlpool/internal/params"
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
