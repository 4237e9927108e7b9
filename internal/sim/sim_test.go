package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []Time
	for _, d := range []Duration{50, 10, 30, 20, 40} {
		d := d
		e.At(e.Now()+d, func() { order = append(order, e.Now()) })
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 50 {
		t.Fatalf("final time = %v, want 50", end)
	}
	want := []Time{10, 20, 30, 40, 50}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order[%d] = %v, want %v", i, order[i], v)
		}
	}
}

func TestEngineFIFOAmongSimultaneousEvents(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: order = %v", order)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(e.Now()+10, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(e.Now()+10, func() { fired = true })
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("event not marked canceled")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double-cancel and cancel-nil must be harmless.
	e.Cancel(ev) //lint:allow simhandle the documented double-cancel no-op is exactly what this test exercises
	e.Cancel(nil)
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine(1)
	var got []int
	evs := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = e.At(e.Now()+Duration(10*(i+1)), func() { got = append(got, i) })
	}
	e.Cancel(evs[2])
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(e.Now()+10, func() { fired++ })
	e.At(e.Now()+20, func() { fired++ })
	e.At(e.Now()+30, func() { fired++ })
	now, err := e.RunUntil(20)
	if err != nil {
		t.Fatal(err)
	}
	if now != 20 {
		t.Fatalf("now = %v, want 20", now)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if pending(e) != 1 {
		t.Fatalf("pending = %d, want 1", pending(e))
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := NewEngine(1)
	e.At(e.Now()+5, func() {})
	now, err := e.RunUntil(100)
	if err != nil {
		t.Fatal(err)
	}
	if now != 100 {
		t.Fatalf("now = %v, want 100", now)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine(1)
	e.SetEventLimit(10)
	var tick func()
	tick = func() { e.At(e.Now()+1, tick) }
	e.At(e.Now()+1, tick)
	_, err := e.Run()
	if _, ok := err.(ErrEventLimit); !ok {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(e.Now()+10, func() {
		order = append(order, "a")
		e.At(e.Now()+5, func() { order = append(order, "b") })
	})
	e.At(e.Now()+20, func() { order = append(order, "c") })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{612, "612ns"},
		{14_200, "14.20us"},
		{3_500_000, "3.500ms"},
		{12_000_000_000, "12.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var stamps []Time
		var gen func()
		n := 0
		gen = func() {
			stamps = append(stamps, e.Now())
			n++
			if n < 100 {
				e.At(e.Now()+e.Rand().Exp(100), gen)
			}
		}
		e.At(e.Now()+0, gen)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestRandFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandIntnRange(t *testing.T) {
	if err := quick.Check(func(seed int64, n uint8) bool {
		bound := int(n%100) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(7)
	const mean = 1000
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if got < 950 || got > 1050 {
		t.Fatalf("empirical mean %f too far from %d", got, mean)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(11)
	f := r.Fork()
	a := make([]uint64, 10)
	for i := range a {
		a[i] = f.Uint64()
	}
	// Parent stream must continue without being identical to the fork.
	same := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("forked stream identical to parent")
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck zero stream")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.At(e.Now()+Duration(j), func() {})
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
