package params

import (
	"errors"
	"strings"
	"testing"
)

func intSpec(name, def string, min, max int64) Spec {
	return Spec{Name: name, Kind: Int, Def: def, Min: min, Max: max, Bounded: true, Help: name}
}

func TestDefaultsAndTypedAccess(t *testing.T) {
	s := New(
		Spec{Name: "seed", Kind: Int, Def: "42", Help: "seed"},
		intSpec("racks", "4", 2, 64),
		Spec{Name: "ratio", Kind: Float, Def: "0.5", Help: "ratio"},
		Spec{Name: "payload", Kind: String, Def: "all", Enum: []string{"75", "all"}, Help: "payload"},
	)
	if got := s.Seed(); got != 42 {
		t.Fatalf("Seed() = %d, want 42", got)
	}
	if got := s.Int("racks"); got != 4 {
		t.Fatalf("Int(racks) = %d, want 4", got)
	}
	if got := s.Float("ratio"); got != 0.5 {
		t.Fatalf("Float(ratio) = %g, want 0.5", got)
	}
	if got := s.Str("payload"); got != "all" {
		t.Fatalf("Str(payload) = %q, want all", got)
	}
}

func TestValidation(t *testing.T) {
	s := New(intSpec("racks", "4", 2, 64),
		Spec{Name: "ratio", Kind: Float, Def: "4", Help: "r"},
		Spec{Name: "payload", Kind: String, Def: "all", Enum: []string{"75", "all"}, Help: "p"})
	for _, bad := range []struct{ name, v string }{
		{"racks", "1"}, {"racks", "65"}, {"racks", "four"},
		{"ratio", "four"}, {"ratio", "1e309"},
		{"ratio", "NaN"}, {"ratio", "nan"}, {"ratio", "Inf"}, {"ratio", "+Inf"},
		{"ratio", "-Inf"}, {"ratio", "infinity"},
		{"payload", "76"}, {"nonsense", "1"},
	} {
		if err := s.Set(bad.name, bad.v); !errors.Is(err, ErrBadParam) {
			t.Errorf("Set(%s, %s) = %v, want ErrBadParam", bad.name, bad.v, err)
		}
	}
	if got := s.Float("ratio"); got != 4 {
		t.Fatalf("rejected sets changed ratio to %g", got)
	}
	if err := s.Set("racks", "8"); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if got := s.Int("racks"); got != 8 {
		t.Fatalf("Int(racks) = %d after set, want 8", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := New(intSpec("racks", "4", 2, 64))
	c := s.Clone()
	if err := c.Set("racks", "8"); err != nil {
		t.Fatal(err)
	}
	if s.Int("racks") != 4 {
		t.Fatal("mutating a clone changed the original")
	}
	if c.Int("racks") != 8 {
		t.Fatal("clone lost its own value")
	}
}

func TestValuesOrder(t *testing.T) {
	s := New(
		Spec{Name: "b", Kind: Int, Def: "1", Help: "b"},
		Spec{Name: "a", Kind: Int, Def: "2", Help: "a"},
	)
	kvs := s.Values()
	if len(kvs) != 2 || kvs[0].Name != "b" || kvs[1].Name != "a" {
		t.Fatalf("Values() = %v, want declaration order b,a", kvs)
	}
}

func TestUndeclaredReadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reading an undeclared parameter did not panic")
		}
	}()
	New().Int("nope")
}

func TestDuplicateSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate spec did not panic")
		}
	}()
	New(intSpec("x", "1", 0, 9), intSpec("x", "2", 0, 9))
}

func TestInvalidDefaultPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds default did not panic")
		}
	}()
	New(intSpec("x", "99", 0, 9))
}

func TestSpecUsage(t *testing.T) {
	u := intSpec("racks", "4", 2, 64).Usage()
	for _, want := range []string{"int", "default 4", "2..64"} {
		if !strings.Contains(u, want) {
			t.Errorf("Usage() = %q, missing %q", u, want)
		}
	}
	e := Spec{Name: "payload", Kind: String, Def: "all", Enum: []string{"75", "all"}}.Usage()
	if !strings.Contains(e, "one of 75|all") {
		t.Errorf("enum Usage() = %q", e)
	}
}
