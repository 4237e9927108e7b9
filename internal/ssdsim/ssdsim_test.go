package ssdsim

import (
	"errors"
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/pcie"
	"cxlpool/internal/sim"
)

func testRig(t *testing.T) (*sim.Engine, *SSD, *mem.Region) {
	t.Helper()
	e := sim.NewEngine(1)
	ram := mem.NewRegion("ddr", 0, 1<<20, mem.Timing{ReadLatency: 110, WriteLatency: 80, Bandwidth: 38.4}, nil)
	s := New("ssd0", e, 1<<24)
	s.AttachHostMemory(ram)
	return e, s, ram
}

func TestWriteReadRoundTrip(t *testing.T) {
	e, s, ram := testRig(t)
	payload := make([]byte, SectorSize)
	copy(payload, "persistent data")
	if err := ram.Poke(0x1000, payload); err != nil {
		t.Fatal(err)
	}
	var wrote, read bool
	err := s.Submit(0, OpWrite, 8192, SectorSize, 0x1000, func(c Completion) {
		wrote = true
		if c.Latency < WriteLatency {
			t.Errorf("write latency %v below NAND floor", c.Latency)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("write never completed")
	}
	err = s.Submit(e.Now(), OpRead, 8192, SectorSize, 0x2000, func(c Completion) {
		read = true
		if c.Latency < ReadLatency {
			t.Errorf("read latency %v below NAND floor", c.Latency)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !read {
		t.Fatal("read never completed")
	}
	got := make([]byte, len(payload))
	if err := ram.Peek(0x2000, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:15]) != "persistent data" {
		t.Fatalf("read back %q", got[:15])
	}
}

func TestValidation(t *testing.T) {
	_, s, _ := testRig(t)
	noop := func(Completion) {}
	if err := s.Submit(0, OpRead, 0, 100, 0, noop); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Submit(0, OpRead, 0, 0, 0, noop); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Submit(0, OpRead, 123, SectorSize, 0, noop); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("unaligned lba err = %v", err)
	}
	if err := s.Submit(0, OpRead, 1<<24, SectorSize, 0, noop); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("past-end err = %v", err)
	}
	if err := s.Submit(0, Op(9), 0, SectorSize, 0, noop); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestFailureInjection(t *testing.T) {
	_, s, _ := testRig(t)
	s.Fail()
	err := s.Submit(0, OpRead, 0, SectorSize, 0, func(Completion) {})
	if !errors.Is(err, pcie.ErrDeviceFailed) {
		t.Fatalf("err = %v", err)
	}
	s.Repair()
	if err := s.Submit(0, OpRead, 0, SectorSize, 0, func(Completion) {}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelismAndQueueing(t *testing.T) {
	e, s, _ := testRig(t)
	var lats []sim.Duration
	// Submit 64 reads at t=0: 16 channels -> 4 waves.
	for i := 0; i < 64; i++ {
		err := s.Submit(0, OpRead, int64(i*SectorSize), SectorSize, 0, func(c Completion) {
			lats = append(lats, c.Latency)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(lats) != 64 {
		t.Fatalf("completions = %d", len(lats))
	}
	var min, max sim.Duration = lats[0], lats[0]
	for _, l := range lats {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// The last wave must wait ~3 NAND times behind the first.
	if max < 3*min {
		t.Fatalf("no queueing visible: min=%v max=%v", min, max)
	}
	reads, br := s.reads, s.bytesRead
	if reads != 64 || br != 64*SectorSize {
		t.Fatalf("stats reads=%d bytes=%d", reads, br)
	}
}

func TestBuffersInCXLPool(t *testing.T) {
	// SSD DMA through a CXL region still round-trips data and costs
	// more than DDR.
	e := sim.NewEngine(1)
	ddr := mem.NewRegion("ddr", 0, 1<<20, mem.Timing{ReadLatency: 110, WriteLatency: 80, Bandwidth: 38.4}, nil)
	cxlRegion := mem.NewRegion("cxl", 0, 1<<20, mem.Timing{ReadLatency: 237, WriteLatency: 180, Bandwidth: 30}, nil)
	sd := New("ssd-ddr", e, 1<<24)
	sc := New("ssd-cxl", e, 1<<24)
	sd.AttachHostMemory(ddr)
	sc.AttachHostMemory(cxlRegion)
	var latD, latC sim.Duration
	if err := sd.Submit(0, OpRead, 0, SectorSize, 0, func(c Completion) { latD = c.Latency }); err != nil {
		t.Fatal(err)
	}
	if err := sc.Submit(0, OpRead, 0, SectorSize, 0, func(c Completion) { latC = c.Latency }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if latC <= latD {
		t.Fatalf("CXL buffer latency %v not above DDR %v", latC, latD)
	}
	// But the delta is negligible vs the 65us NAND read (paper's point
	// applies even more strongly to SSDs than NICs).
	delta := float64(latC-latD) / float64(latD)
	if delta > 0.05 {
		t.Fatalf("CXL placement added %.1f%% to SSD read latency; must be <5%%", delta*100)
	}
}

func BenchmarkSSDRead4K(b *testing.B) {
	e := sim.NewEngine(1)
	ram := mem.NewRegion("ddr", 0, 1<<20, mem.Timing{ReadLatency: 110, Bandwidth: 38.4}, nil)
	s := New("ssd0", e, 1<<26)
	s.AttachHostMemory(ram)
	for i := 0; i < b.N; i++ {
		if err := s.Submit(sim.Time(i*1000), OpRead, 0, SectorSize, 0, func(Completion) {}); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 0 {
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
