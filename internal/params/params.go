// Package params is the typed parameter model behind the Scenario API:
// every experiment declares its parameter surface as a list of Specs
// (name, kind, default, bounds, help), and receives its inputs as a
// validated Set. The CLI generates its flags from the same Specs, the
// sweep driver cross-products override values through Set/Clone, and
// report metadata records the effective values — one declaration,
// every surface.
//
// Values are stored in canonical string form (what a flag or a `-set
// racks=2,4,8` axis provides) and validated against the Spec on entry,
// so a Set can always be rendered back into run metadata verbatim.
// Typed accessors (Int, Int64, Float, Str) parse on read; reading a
// parameter the scenario never declared is a programming error and
// panics, exactly like touching an unregistered flag.
package params

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ErrBadParam is wrapped by every Set rejection — bad value, violated
// bound, unknown name — so callers can distinguish user-input errors
// from programming errors (which panic) with errors.Is.
var ErrBadParam = errors.New("bad parameter")

// paramError carries a rejection message and marks it as ErrBadParam
// without altering the rendered text.
type paramError struct{ msg string }

func (e *paramError) Error() string { return e.msg }

func (e *paramError) Unwrap() error { return ErrBadParam }

func badParamf(format string, args ...any) error {
	return &paramError{msg: fmt.Sprintf(format, args...)}
}

// Kind is a parameter's value type.
type Kind int

const (
	// Int parameters parse as base-10 signed integers.
	Int Kind = iota
	// Float parameters parse as decimal floating point.
	Float
	// String parameters are free-form unless Spec.Enum restricts them.
	String
)

// String names the kind the way the generated usage text prints it.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Float:
		return "float"
	default:
		return "string"
	}
}

// Spec declares one parameter: its name, kind, default (canonical
// string form), optional bounds or enum, and one-line help. Specs are
// data, not behavior — the CLI, the sweep driver, and the usage text
// are all generated from them.
type Spec struct {
	Name string
	Kind Kind
	// Def is the default value in canonical string form ("42", "all").
	Def string
	// Help is the one-line usage description.
	Help string
	// Min/Max bound Int parameters inclusively when Bounded is true.
	Min, Max int64
	Bounded  bool
	// Enum restricts String parameters to the listed values.
	Enum []string
}

// Usage renders the spec's help line suffix: kind, default, and any
// constraint, e.g. `int, default 4, 2..64` or `one of 75|1500|9000|all`.
func (s Spec) Usage() string {
	var b strings.Builder
	if len(s.Enum) > 0 {
		fmt.Fprintf(&b, "one of %s", strings.Join(s.Enum, "|"))
	} else {
		b.WriteString(s.Kind.String())
	}
	fmt.Fprintf(&b, ", default %s", s.Def)
	if s.Bounded {
		fmt.Fprintf(&b, ", %d..%d", s.Min, s.Max)
	}
	return b.String()
}

// validate checks one canonical value against the spec.
func (s Spec) validate(value string) error {
	switch s.Kind {
	case Int:
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return badParamf("params: -%s=%q is not an integer", s.Name, value)
		}
		if s.Bounded && (n < s.Min || n > s.Max) {
			return badParamf("params: -%s=%d out of range %d..%d", s.Name, n, s.Min, s.Max)
		}
	case Float:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return badParamf("params: -%s=%q is not a number", s.Name, value)
		}
		// NaN and ±Inf parse, but no knob means them: NaN slips past
		// every range check downstream.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return badParamf("params: -%s=%q is not finite", s.Name, value)
		}
	case String:
		if len(s.Enum) > 0 {
			for _, e := range s.Enum {
				if value == e {
					return nil
				}
			}
			return badParamf("params: -%s=%q not one of %s", s.Name, value, strings.Join(s.Enum, "|"))
		}
	}
	return nil
}

// KV is one effective parameter value, in declaration order — the form
// run metadata and sweep records carry.
type KV struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Set is a validated assignment for a declared parameter list. The
// zero Set is empty; build one with New.
type Set struct {
	specs []Spec
	vals  map[string]string
}

// New returns a Set holding every spec at its default. Duplicate or
// unnamed specs panic: the registry is static data and a bad
// declaration should fail the first test that touches it.
func New(specs ...Spec) *Set {
	s := &Set{vals: make(map[string]string, len(specs))}
	for _, sp := range specs {
		if sp.Name == "" {
			panic("params: spec with empty name")
		}
		if _, dup := s.vals[sp.Name]; dup {
			panic("params: duplicate spec " + sp.Name)
		}
		if err := sp.validate(sp.Def); err != nil {
			panic(fmt.Sprintf("params: default for -%s invalid: %v", sp.Name, err))
		}
		s.specs = append(s.specs, sp)
		s.vals[sp.Name] = sp.Def
	}
	return s
}

// Specs returns the declarations in order.
func (s *Set) Specs() []Spec {
	out := make([]Spec, len(s.specs))
	copy(out, s.specs)
	return out
}

// Clone returns an independent copy — the sweep driver's per-point
// override base.
func (s *Set) Clone() *Set {
	c := &Set{specs: s.specs, vals: make(map[string]string, len(s.vals))}
	for k, v := range s.vals {
		c.vals[k] = v
	}
	return c
}

// Set assigns a canonical value, validating it against the declaration.
// Unknown names are an error (the caller is user input, not code).
func (s *Set) Set(name, value string) error {
	for _, sp := range s.specs {
		if sp.Name == name {
			if err := sp.validate(value); err != nil {
				return err
			}
			s.vals[name] = value
			return nil
		}
	}
	return badParamf("params: unknown parameter %q", name)
}

// Has reports whether the parameter is declared.
func (s *Set) Has(name string) bool {
	_, ok := s.vals[name]
	return ok
}

// Values returns every effective value in declaration order.
func (s *Set) Values() []KV {
	out := make([]KV, 0, len(s.specs))
	for _, sp := range s.specs {
		out = append(out, KV{Name: sp.Name, Value: s.vals[sp.Name]})
	}
	return out
}

// get fetches the canonical string, panicking on undeclared names —
// scenario code reading a parameter it never declared is a bug.
func (s *Set) get(name string) string {
	v, ok := s.vals[name]
	if !ok {
		panic("params: read of undeclared parameter " + name)
	}
	return v
}

// Str returns a string parameter.
func (s *Set) Str(name string) string { return s.get(name) }

// Int returns an integer parameter as int.
func (s *Set) Int(name string) int { return int(s.Int64(name)) }

// Int64 returns an integer parameter.
func (s *Set) Int64(name string) int64 {
	n, err := strconv.ParseInt(s.get(name), 10, 64)
	if err != nil {
		panic(fmt.Sprintf("params: %s holds non-integer %q", name, s.get(name)))
	}
	return n
}

// Float returns a float parameter.
func (s *Set) Float(name string) float64 {
	f, err := strconv.ParseFloat(s.get(name), 64)
	if err != nil {
		panic(fmt.Sprintf("params: %s holds non-number %q", name, s.get(name)))
	}
	return f
}

// Seed returns the reserved "seed" parameter every scenario carries.
func (s *Set) Seed() int64 { return s.Int64("seed") }
