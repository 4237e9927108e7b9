package metrics

import (
	"testing"

	"cxlpool/internal/report"
)

func TestCounterSetOrderAndTotals(t *testing.T) {
	s := NewCounterSet()
	s.Add("rack2", 0) // registers at zero
	s.Add("rack0", 3)
	s.Add("rack1", 1)
	s.Add("rack0", 2)
	if got := s.Get("rack0"); got != 5 {
		t.Fatalf("rack0 = %d", got)
	}
	if got := s.Get("missing"); got != 0 {
		t.Fatalf("missing = %d", got)
	}
	if got := s.Total(); got != 6 {
		t.Fatalf("total = %d", got)
	}
	names := s.Names()
	want := []string{"rack2", "rack0", "rack1"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %q, want %q (first-Add order)", i, names[i], want[i])
		}
	}
	if got := s.String(); got != "rack2=0 rack0=5 rack1=1" {
		t.Fatalf("String() = %q", got)
	}
}

func TestCounterSetFeedsReport(t *testing.T) {
	s := NewCounterSet()
	s.Add("rack1", 7)
	s.Add("rack0", 2)

	r := report.New("demo", "t", 1, nil)
	s.AppendScalars(r, "migrations.")
	if len(r.Scalars) != 2 ||
		r.Scalars[0].Name != "migrations.rack1" || r.Scalars[0].Value != 7 ||
		r.Scalars[1].Name != "migrations.rack0" || r.Scalars[1].Value != 2 {
		t.Fatalf("AppendScalars = %+v (want first-Add order)", r.Scalars)
	}
}
