package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

func TestMultiRowOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	out := runScenario(t, "multirow", 42, nil).Text() // 8 racks in 2 rows
	for _, needle := range []string{
		"multi-row fleet", "8 racks in 2 rows", "inter-rack (spine)",
		"cross-row (core)", "same-row", "rack drain", "availability",
		"row0", "row1",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("multirow output missing %q:\n%s", needle, out)
		}
	}
	// Under the default shape the hot rack's row has slack: everything
	// the sweep moves stays inside the row.
	if !strings.Contains(out, "cross-row=0") {
		t.Errorf("default fleet moved tenants cross-row despite same-row slack:\n%s", out)
	}
}

func TestMultiRowTightRowsSpillCrossRow(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	// Two racks per row: the hot rack's 12x demand overruns its whole
	// row, forcing moves across the core tier.
	out := runScenario(t, "multirow", 42, map[string]string{"rows": "4"}).Text()
	if strings.Contains(out, "cross-row=0 ") {
		t.Errorf("tight rows never migrated cross-row:\n%s", out)
	}
}

func TestMultiRowHeterogeneousRacks(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	out := runScenario(t, "multirow", 42, map[string]string{"het": "mixed"}).Text()
	// Mixed fleets show both rack shapes and the 40G uplink bottleneck
	// (4 x 5 GB/s) in the spine tier.
	for _, needle := range []string{"heterogeneity: mixed", "20.0 GB/s", "120", "200"} {
		if !strings.Contains(out, needle) {
			t.Errorf("heterogeneous output missing %q:\n%s", needle, out)
		}
	}
}

// E15 must be byte-identical at any worker count, like every scenario.
func TestMultiRowWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	render := func(workers int) string {
		return runScenario(t, "multirow", 42, map[string]string{"workers": strconv.Itoa(workers)}).Text()
	}
	seq := render(1)
	if got := render(4); got != seq {
		t.Fatalf("workers=4 output diverges from sequential:\nseq:\n%s\npar:\n%s", seq, got)
	}
}

func TestMultiRowValidation(t *testing.T) {
	s, ok := Lookup("multirow")
	if !ok {
		t.Fatal("multirow not registered")
	}
	if err := s.NewParams().Set("rows", "0"); err == nil {
		t.Fatal("rows=0 accepted by the parameter bounds")
	}
	if err := s.NewParams().Set("het", "bogus"); err == nil {
		t.Fatal("unknown het profile accepted")
	}
	// rows > racks is a topology-level error surfaced at run time.
	p := s.NewParams()
	if err := p.Set("racks", "2"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("rows", "4"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), p); err == nil {
		t.Fatal("rows > racks accepted")
	}
}
