package accelsim

import (
	"errors"
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/pcie"
	"cxlpool/internal/sim"
)

func rig(t testing.TB, kind Kind) (*sim.Engine, *Accel, *mem.Region) {
	t.Helper()
	e := sim.NewEngine(1)
	ram := mem.NewRegion("ddr", 0, 1<<20, mem.Timing{ReadLatency: 110, WriteLatency: 80, Bandwidth: 38.4}, nil)
	a := New("accel0", e, kind)
	a.AttachHostMemory(ram)
	return e, a, ram
}

func TestOffloadRoundTrip(t *testing.T) {
	e, a, ram := rig(t, Compression)
	input := make([]byte, 4096)
	for i := range input {
		input[i] = byte(i * 3)
	}
	if err := ram.Poke(0, input); err != nil {
		t.Fatal(err)
	}
	var got Job
	var fired bool
	if err := a.Submit(0, 0, 0x10000, len(input), func(j Job) {
		got = j
		fired = true
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("job never completed")
	}
	if got.OutputLen != a.OutputLen(4096) {
		t.Fatalf("output len = %d", got.OutputLen)
	}
	if got.Latency < DefaultProfile(Compression).Setup {
		t.Fatalf("latency %v below setup floor", got.Latency)
	}
	// Output in memory matches the reference transform.
	want := Transform(input, got.OutputLen)
	out := make([]byte, got.OutputLen)
	if err := ram.Peek(0x10000, out); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("output mismatch at %d", i)
		}
	}
}

func TestProfilesDiffer(t *testing.T) {
	e := sim.NewEngine(1)
	ram := mem.NewRegion("ddr", 0, 1<<20, mem.Timing{ReadLatency: 110, Bandwidth: 38.4}, nil)
	var lats []sim.Duration
	for _, k := range []Kind{Compression, HomomorphicEncryption} {
		a := New(k.String(), e, k)
		a.AttachHostMemory(ram)
		if err := a.Submit(e.Now(), 0, 0x10000, 65536, func(j Job) {
			lats = append(lats, j.Latency)
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// HE is orders of magnitude slower than compression for the same input.
	if lats[1] < 50*lats[0] {
		t.Fatalf("HE %v not ≫ compression %v", lats[1], lats[0])
	}
}

func TestLaneQueueing(t *testing.T) {
	e, a, _ := rig(t, Crypto) // 4 lanes
	var lats []sim.Duration
	for i := 0; i < 12; i++ {
		if err := a.Submit(0, 0, 0x10000, 65536, func(j Job) {
			lats = append(lats, j.Latency)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(lats) != 12 {
		t.Fatalf("completions = %d", len(lats))
	}
	min, max := lats[0], lats[0]
	for _, l := range lats {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// 12 jobs on 4 lanes: last wave waits ~2 compute times.
	if max < 2*min {
		t.Fatalf("no lane queueing: min=%v max=%v", min, max)
	}
}

func TestFailureAndValidation(t *testing.T) {
	_, a, _ := rig(t, Compression)
	if err := a.Submit(0, 0, 0, 0, func(Job) {}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("err = %v", err)
	}
	a.Fail()
	if err := a.Submit(0, 0, 0, 64, func(Job) {}); !errors.Is(err, pcie.ErrDeviceFailed) {
		t.Fatalf("err = %v", err)
	}
	a.Repair()
	if err := a.Submit(0, 0, 0x1000, 64, func(Job) {}); err != nil {
		t.Fatal(err)
	}
}

func TestExpansionRatios(t *testing.T) {
	e := sim.NewEngine(1)
	comp := New("c", e, Compression)
	if got := comp.OutputLen(1000); got != 500 {
		t.Fatalf("compression output = %d", got)
	}
	he := New("h", e, HomomorphicEncryption)
	if got := he.OutputLen(1000); got != 8000 {
		t.Fatalf("HE output = %d", got)
	}
	if got := comp.OutputLen(1); got < 1 {
		t.Fatal("zero-length output")
	}
}

func BenchmarkOffload64K(b *testing.B) {
	e, a, _ := rig(b, Compression)
	for i := 0; i < b.N; i++ {
		if err := a.Submit(sim.Time(i)*100_000, 0, 0x10000, 65536, func(Job) {}); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Submit stages through grow-once scratch and recycles its completion
// events, so a steady-state 4 KiB job allocates nothing (it took three
// allocations when each job made its own staging slices and closure).
func TestSubmitAllocBudget(t *testing.T) {
	e, a, _ := rig(t, Compression)
	done := func(Job) {}
	job := func() {
		if err := a.Submit(e.Now(), 0, 0x10000, 4096, done); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	job() // warm the scratch, the event pool and the memory chunks
	if allocs := testing.AllocsPerRun(200, job); allocs != 0 {
		t.Fatalf("Submit allocates %.1f times per 4 KiB job, want 0", allocs)
	}
}
