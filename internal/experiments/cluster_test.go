package experiments

import (
	"strings"
	"testing"
)

func TestClusterFederationOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rack sweep in -short mode")
	}
	out := runExp(t, "cluster")
	for _, needle := range []string{
		"cluster federation", "inter-rack (spine)", "rack drain",
		"cross-rack migrations", "pooling benefit", "federated",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("cluster output missing %q:\n%s", needle, out)
		}
	}
	// The scenario must actually exercise the federation machinery.
	if strings.Contains(out, "(total 0)") {
		t.Errorf("no cross-rack migrations happened:\n%s", out)
	}
	if !strings.Contains(out, "drained") {
		t.Errorf("rack drain not visible in the epoch table:\n%s", out)
	}
}

// The cluster experiment must be byte-identical for any worker count —
// the acceptance bar for federating on top of the parallel runner.
func TestClusterFederationWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rack sweep in -short mode")
	}
	seq := runScenario(t, "cluster", 42, map[string]string{"racks": "4", "workers": "1"}).Text()
	if got := runScenario(t, "cluster", 42, map[string]string{"racks": "4", "workers": "4"}).Text(); got != seq {
		t.Fatalf("workers=4 output diverges from sequential:\nseq:\n%s\npar:\n%s", seq, got)
	}
}

func TestClusterFederationValidation(t *testing.T) {
	s, ok := Lookup("cluster")
	if !ok {
		t.Fatal("cluster not registered")
	}
	// The declared bounds reject a single-rack cluster at the
	// parameter layer — before any simulation runs.
	if err := s.NewParams().Set("racks", "1"); err == nil {
		t.Fatal("racks=1 accepted by the parameter bounds")
	}
	if err := s.NewParams().Set("racks", "not-a-number"); err == nil {
		t.Fatal("non-numeric racks accepted")
	}
}
