package sim

import "testing"

// BenchmarkScheduleFire is the kernel's core stress loop: keep a
// rolling window of pending events, each firing schedules nothing.
// Measures pure heap push/pop plus event allocation.
func BenchmarkScheduleFire(b *testing.B) {
	const window = 1024
	e := NewEngine(1)
	fn := func() {}
	// Pre-fill the window.
	for i := 0; i < window; i++ {
		e.At(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Time(window), fn)
		e.Step()
	}
}

// BenchmarkSelfScheduling models the common simulation shape: a fixed
// population of actors, each rescheduling itself on fire (timer wheels,
// pollers, token-bucket refills). This is the pattern behind every
// agent poll loop and NIC pacing timer in the repo.
func BenchmarkSelfScheduling(b *testing.B) {
	const actors = 256
	e := NewEngine(1)
	var tick func(id int)
	tick = func(id int) {
		e.At(e.Now()+Duration(100+id), func() { tick(id) })
	}
	for i := 0; i < actors; i++ {
		tick(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkScheduleCancel stresses the cancellation path: half of all
// scheduled events are canceled before they fire.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.At(e.Now()+Time(512+i%64), fn)
		if i%2 == 0 {
			e.Cancel(ev)
		}
		e.Step()
	}
	b.StopTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBurstDrain schedules a large burst up front and drains it,
// the shape of open-loop arrival generators.
func BenchmarkBurstDrain(b *testing.B) {
	const burst = 4096
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < burst; j++ {
			e.At(Time(j%257), fn)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
