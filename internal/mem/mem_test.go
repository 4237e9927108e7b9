package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"cxlpool/internal/sim"
)

func ddr(t *testing.T) *Region {
	t.Helper()
	return NewRegion("ddr", 0x1000, 1<<20, Timing{
		ReadLatency:  110,
		WriteLatency: 80,
		Bandwidth:    38.4, // one DDR5-4800 channel
	}, nil)
}

func TestAlignHelpers(t *testing.T) {
	if AlignDown(0) != 0 || AlignUp(0) != 0 {
		t.Fatal("align of 0")
	}
	if AlignDown(63) != 0 || AlignDown(64) != 64 || AlignDown(65) != 64 {
		t.Fatal("AlignDown wrong")
	}
	if AlignUp(1) != 64 || AlignUp(64) != 64 || AlignUp(65) != 128 {
		t.Fatal("AlignUp wrong")
	}
}

func TestLines(t *testing.T) {
	cases := []struct {
		a    Address
		size int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{64, 64, 1},
		{10, 128, 3},
	}
	for _, c := range cases {
		if got := Lines(c.a, c.size); got != c.want {
			t.Errorf("Lines(%d,%d) = %d, want %d", c.a, c.size, got, c.want)
		}
	}
}

func TestRegionReadWriteRoundTrip(t *testing.T) {
	r := ddr(t)
	data := []byte("hello cxl world")
	if _, err := r.WriteAt(0, 0x1040, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := r.ReadAt(10, 0x1040, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read back %q", got)
	}
}

func TestRegionOutOfRange(t *testing.T) {
	r := ddr(t)
	buf := make([]byte, 16)
	if _, err := r.ReadAt(0, 0x0, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("below-base read err = %v", err)
	}
	if _, err := r.WriteAt(0, r.End()-8, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("past-end write err = %v", err)
	}
	// Exactly at the end boundary is fine.
	if _, err := r.WriteAt(0, r.End()-16, buf); err != nil {
		t.Fatalf("boundary write err = %v", err)
	}
}

func TestRegionIdleLatency(t *testing.T) {
	r := ddr(t)
	buf := make([]byte, 64)
	d, err := r.ReadAt(0, 0x1000, buf)
	if err != nil {
		t.Fatal(err)
	}
	// 110ns idle + 64B at 38.4 GB/s ~ 1.6ns.
	if d < 110 || d > 115 {
		t.Fatalf("idle read latency = %v, want ~111ns", d)
	}
	d, err = r.WriteAt(sim.Time(1000), 0x1000, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d < 80 || d > 85 {
		t.Fatalf("idle write latency = %v, want ~81ns", d)
	}
}

func TestRegionBandwidthQueueing(t *testing.T) {
	// 1 GB/s => 1 byte/ns. A 1000-byte transfer occupies the channel for
	// 1000ns; a second transfer issued at the same instant must wait.
	r := NewRegion("slow", 0, 1<<16, Timing{ReadLatency: 100, Bandwidth: 1}, nil)
	buf := make([]byte, 1000)
	d1, err := r.ReadAt(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != 1100 {
		t.Fatalf("first read latency = %v, want 1100", d1)
	}
	d2, err := r.ReadAt(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != 2100 { // waits 1000, then 100 idle + 1000 xfer
		t.Fatalf("queued read latency = %v, want 2100", d2)
	}
	if r.QueueingDelay() != 1000 {
		t.Fatalf("queueing delay = %v, want 1000", r.QueueingDelay())
	}
	// After the channel drains, no queueing.
	d3, err := r.ReadAt(5000, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != 1100 {
		t.Fatalf("drained read latency = %v, want 1100", d3)
	}
}

func TestRegionInfiniteBandwidth(t *testing.T) {
	r := NewRegion("inf", 0, 1<<12, Timing{ReadLatency: 50}, nil)
	buf := make([]byte, 4096)
	d, err := r.ReadAt(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d != 50 {
		t.Fatalf("latency = %v, want 50 (no transfer term)", d)
	}
}

func TestRegionJitterBounded(t *testing.T) {
	rng := sim.NewRand(1)
	r := NewRegion("j", 0, 1<<12, Timing{ReadLatency: 100, Jitter: 20}, rng)
	buf := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		d, err := r.ReadAt(sim.Time(i*1000), 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		if d < 100 || d >= 120 {
			t.Fatalf("jittered latency %v outside [100,120)", d)
		}
	}
}

func TestRegionStats(t *testing.T) {
	r := ddr(t)
	buf := make([]byte, 128)
	_, _ = r.ReadAt(0, 0x1000, buf)
	_, _ = r.WriteAt(0, 0x1000, buf)
	_, _ = r.WriteAt(0, 0x1000, buf)
	reads, writes, br, bw := r.Stats()
	if reads != 1 || writes != 2 || br != 128 || bw != 256 {
		t.Fatalf("stats = %d %d %d %d", reads, writes, br, bw)
	}
}

func TestPeekPokeNoTiming(t *testing.T) {
	r := ddr(t)
	if err := r.Poke(0x1000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := r.Peek(0x1000, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[2] != 3 {
		t.Fatal("peek mismatch")
	}
	reads, writes, _, _ := r.Stats()
	if reads != 0 || writes != 0 {
		t.Fatal("peek/poke affected stats")
	}
	if err := r.Peek(0, got); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("peek out of range not rejected")
	}
}

func TestGBpsTransferTime(t *testing.T) {
	b := GBps(1) // 1 byte per ns
	if got := b.TransferTime(1000); got != 1000 {
		t.Fatalf("TransferTime = %v", got)
	}
	if got := GBps(0).TransferTime(1000); got != 0 {
		t.Fatalf("zero-bandwidth TransferTime = %v", got)
	}
	if got := b.Bytes(500); got != 500 {
		t.Fatalf("Bytes = %d", got)
	}
}

func TestAddressSpaceRouting(t *testing.T) {
	s := NewAddressSpace()
	r1 := NewRegion("a", 0, 4096, Timing{ReadLatency: 10}, nil)
	r2 := NewRegion("b", 8192, 4096, Timing{ReadLatency: 99}, nil)
	if err := s.Add(r1, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(r2, 8192, 4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	d, err := s.ReadAt(0, 100, buf)
	if err != nil || d != 10 {
		t.Fatalf("region a read: d=%v err=%v", d, err)
	}
	d, err = s.WriteAt(0, 8192, buf)
	if err != nil || d != 0 {
		t.Fatalf("region b write: d=%v err=%v", d, err)
	}
	if _, err := s.ReadAt(0, 5000, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("hole read err = %v", err)
	}
	if s.Contains(4090, 10) {
		t.Fatal("cross-boundary access should not be contained")
	}
}

func TestAddressSpaceOverlapRejected(t *testing.T) {
	s := NewAddressSpace()
	r1 := NewRegion("a", 0, 4096, Timing{}, nil)
	if err := s.Add(r1, 0, 4096); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegion("b", 4000, 4096, Timing{}, nil)
	if err := s.Add(r2, 4000, 4096); err == nil {
		t.Fatal("overlap not rejected")
	}
}

func TestAddressSpaceUnsortedInsert(t *testing.T) {
	s := NewAddressSpace()
	hi := NewRegion("hi", 1<<20, 4096, Timing{ReadLatency: 7}, nil)
	lo := NewRegion("lo", 0, 4096, Timing{ReadLatency: 3}, nil)
	if err := s.Add(hi, 1<<20, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(lo, 0, 4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if d, err := s.ReadAt(0, 16, buf); err != nil || d != 3 {
		t.Fatalf("lo read d=%v err=%v", d, err)
	}
	if d, err := s.ReadAt(0, 1<<20, buf); err != nil || d != 7 {
		t.Fatalf("hi read d=%v err=%v", d, err)
	}
}

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator(0x1000, 1<<16)
	p1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p1%CachelineSize != 0 {
		t.Fatalf("alloc %#x not cacheline aligned", uint64(p1))
	}
	p2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p2 < p1+128 { // 100 rounds to 128
		t.Fatalf("allocations overlap: %#x %#x", uint64(p1), uint64(p2))
	}
	if a.UsedBytes() != 256 {
		t.Fatalf("used = %d, want 256", a.UsedBytes())
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	if a.FreeBytes() != a.Size() {
		t.Fatalf("free bytes %d != size %d after freeing all", a.FreeBytes(), a.Size())
	}
	if a.AllocCount() != 0 {
		t.Fatal("alloc count nonzero")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(0, 256)
	if _, err := a.Alloc(256); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhaustion err = %v", err)
	}
}

func TestAllocatorBadFree(t *testing.T) {
	a := NewAllocator(0, 1024)
	if err := a.Free(64); !errors.Is(err, ErrBadFree) {
		t.Fatalf("bad free err = %v", err)
	}
	p, _ := a.Alloc(64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free err = %v", err)
	}
}

func TestAllocatorCoalescing(t *testing.T) {
	a := NewAllocator(0, 3*64)
	p1, _ := a.Alloc(64)
	p2, _ := a.Alloc(64)
	p3, _ := a.Alloc(64)
	// Free in an order that requires both-side coalescing.
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p3); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	// All space must be available as one block again.
	if _, err := a.Alloc(3 * 64); err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
}

func TestAllocatorZeroAndNegative(t *testing.T) {
	a := NewAllocator(0, 1024)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("alloc(0) should fail")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("alloc(-5) should fail")
	}
}

// Property: any interleaving of allocs and frees never hands out
// overlapping blocks and never loses bytes.
func TestAllocatorNoOverlapProperty(t *testing.T) {
	if err := quick.Check(func(ops []uint8) bool {
		a := NewAllocator(0, 1<<14)
		var live []span
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 && op%2 == 1 {
				// Free a live block the op picks.
				i := int(op) % len(live)
				if a.Free(live[i].base) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := int(op)%512 + 1
			addr, err := a.Alloc(size)
			if err != nil {
				continue // exhaustion is fine
			}
			rounded := int(AlignUp(Address(size)))
			for _, o := range live {
				if addr < o.base+Address(o.size) && o.base < addr+Address(rounded) {
					return false // overlap
				}
			}
			live = append(live, span{base: addr, size: rounded})
		}
		total := 0
		for _, s := range live {
			total += s.size
		}
		return total+a.FreeBytes() == a.Size()
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRegionRead64(b *testing.B) {
	r := NewRegion("bench", 0, 1<<20, Timing{ReadLatency: 110, Bandwidth: 38.4}, nil)
	buf := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadAt(sim.Time(i*1000), 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocatorAllocFree(b *testing.B) {
	a := NewAllocator(0, 1<<24)
	for i := 0; i < b.N; i++ {
		p, err := a.Alloc(1500)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}
