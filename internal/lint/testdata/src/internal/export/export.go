// Package export exercises the testonly analyzer: exported API that
// only tests reach is a finding; API that non-test code reaches by
// name, through an interface or constraint it names, or from a second
// caller root (benchroot) is not.
package export

// Memory is named by non-test code (Load's parameter), so the methods
// of every type that satisfies it count as used.
type Memory interface{ ReadAt(off int64) byte }

// Load reads through a Memory.
func Load(m Memory) byte { return m.ReadAt(0) }

// Store reaches Load only as a Memory.
type Store struct{}

// ReadAt has no call site that names it: Memory keeps it alive.
func (Store) ReadAt(off int64) byte { return byte(off) }

// Closer is named by nothing, so it keeps nothing alive.
type Closer interface{ Close() } // want "exported Closer is referenced by nothing"

// Close would satisfy Closer.
func (Store) Close() {} // want "exported Store.Close is referenced by nothing"

// dev is reached only through run's type-parameter constraint.
type dev struct{}

// Attach is called only as the constraint's method.
func (dev) Attach() {}

func run[T interface{ Attach() }](t T) { t.Attach() }

// Start is called from the caller root only.
func Start() { run(dev{}) }

// BenchOnly is called from the caller root only.
func BenchOnly() {}

// OnlyTests is called from export_test.go only.
func OnlyTests() {} // want "exported OnlyTests is referenced only by tests \\(export_test.go\\)"

// Dead is referenced by nothing.
func Dead() {} // want "exported Dead is referenced by nothing"

// Countdown calls itself, which does not count as a use.
func Countdown(n int) int { // want "exported Countdown is referenced by nothing"
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Counter's N is read by a test only.
type Counter struct{ n int }

// N returns the count.
func (c *Counter) N() int { return c.n } // want "exported Counter.N is referenced only by tests \\(export_test.go\\)"

// Limit is read by a test only.
const Limit = 3 // want "exported Limit is referenced only by tests \\(export_test.go\\)"

// String is exempt by name: fmt reaches it.
func (c *Counter) String() string { return "counter" }

// Allowed is kept for a test, with the reason given.
//
//lint:allow testonly TestUsesAllowed needs it
func Allowed() {}
