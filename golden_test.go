package cxlpool

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cxlpool/internal/experiments"
)

// TestRunAllMatchesGolden pins the exact bytes of `cxlpool all -seed
// 42` to the checked-in golden captured before the Scenario API
// redesign. The structured-report renderer must reproduce the
// hand-written output of every experiment byte for byte; a diff here
// means a renderer or conversion regression, not a tuning change. If
// an experiment's output changes on purpose, regenerate with:
//
//	go run ./cmd/cxlpool all -workers 1 -seed 42 > testdata/all_seed42.golden
func TestRunAllMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_seed42.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := experiments.RunAll(&got, 42, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal(goldenDiff(want, got.Bytes()))
	}
}

// goldenDiff locates the first differing byte and quotes the bytes
// around it from both sides.
func goldenDiff(want, got []byte) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(i-120, 0)
	return fmt.Sprintf("output diverges from golden at byte %d:\ngolden: %q\ngot:    %q",
		i, want[lo:min(i+120, len(want))], got[lo:min(i+120, len(got))])
}

// TestStandaloneScenariosMatchGolden pins the exact text of the fleet
// scenarios `all` does not run, so refactors of the cluster control
// plane and the spine are checked byte for byte. Each golden is the
// stdout of the command line in its row; regenerate one with
//
//	go run ./cmd/cxlpool <args> > testdata/<file>
//
// for example
//
//	go run ./cmd/cxlpool failures > testdata/failures.golden
//	go run ./cmd/cxlpool failures -class mix -crews 1 -domains 3 > testdata/failures_mix_crews1.golden
//	go run ./cmd/cxlpool failures -class brownout -sched random -rate 2 -duration 8 -epochs 24 -racks 8 -seed 2 -workers 1 > testdata/failures_brownout_storm.golden
//	go run ./cmd/cxlpool oversub > testdata/oversub.golden
//	go run ./cmd/cxlpool oversub -ratio 0 > testdata/oversub_ratio0.golden
//	go run ./cmd/cxlpool multirow > testdata/multirow.golden
//
// The brownout storm is the one input here on which spilled tenants
// cross a path browned below their demand on the non-blocking spine;
// the default scenarios never reach that case.
func TestStandaloneScenariosMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet scenarios in -short mode")
	}
	for _, tc := range []struct{ args, file string }{
		{"failures", "failures.golden"},
		{"failures -class mix -crews 1 -domains 3", "failures_mix_crews1.golden"},
		{"failures -class brownout -sched random -rate 2 -duration 8 -epochs 24 -racks 8 -seed 2 -workers 1", "failures_brownout_storm.golden"},
		{"oversub", "oversub.golden"},
		{"oversub -ratio 0", "oversub_ratio0.golden"},
		{"multirow", "multirow.golden"},
	} {
		t.Run(strings.TrimSuffix(tc.file, ".golden"), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			args := strings.Fields(tc.args)
			s, ok := experiments.Lookup(args[0])
			if !ok {
				t.Fatalf("%s not registered", args[0])
			}
			p := s.NewParams()
			for i := 1; i+1 < len(args); i += 2 {
				if err := p.Set(strings.TrimPrefix(args[i], "-"), args[i+1]); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := s.Run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if got := []byte(rep.Text()); !bytes.Equal(got, want) {
				t.Fatalf("%s\nregenerate on purpose with: go run ./cmd/cxlpool %s > testdata/%s",
					goldenDiff(want, got), tc.args, tc.file)
			}
		})
	}
}

// TestChurnTraceMatchesGolden pins replay determinism for E17: the
// checked-in canonical trace must render the checked-in report byte
// for byte, exactly as `all` is pinned by all_seed42.golden. The trace
// was recorded with `-rate 4 -seed 7 -record ...`; regenerate both with:
//
//	go run ./cmd/cxlpool churn -epochs 12 -rate 4 -seed 7 -record testdata/churn_small.trace > /dev/null
//	go run ./cmd/cxlpool churn -epochs 12 -trace testdata/churn_small.trace > testdata/churn_small.golden
func TestChurnTraceMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "churn_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := experiments.Lookup("churn")
	if !ok {
		t.Fatal("churn not registered")
	}
	p := s.NewParams()
	if err := p.Set("epochs", "12"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("trace", filepath.Join("testdata", "churn_small.trace")); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(rep.Text()), want) {
		t.Fatalf("churn replay diverges from golden:\n--- golden\n%s\n--- got\n%s", want, rep.Text())
	}
}
