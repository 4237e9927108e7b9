package pcie

import (
	"errors"
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

func hostRAM() *mem.Region {
	return mem.NewRegion("ddr", 0, 1<<20, mem.Timing{
		ReadLatency:  110,
		WriteLatency: 80,
		Bandwidth:    38.4,
	}, nil)
}

func x16() LinkConfig { return LinkConfig{Lanes: 16, Gen: 5} }

func TestLinkBandwidthByGen(t *testing.T) {
	cases := []struct {
		cfg  LinkConfig
		want mem.GBps
	}{
		{LinkConfig{Lanes: 16, Gen: 5}, 60},
		{LinkConfig{Lanes: 8, Gen: 5}, 30},
		{LinkConfig{Lanes: 16, Gen: 4}, 30},
		{LinkConfig{Lanes: 16, Gen: 3}, 15},
		{LinkConfig{Lanes: 8, Gen: 6}, 60},
	}
	for _, c := range cases {
		if got := c.cfg.Bandwidth(); got != c.want {
			t.Errorf("%+v bandwidth = %v, want %v", c.cfg, got, c.want)
		}
	}
}

func TestDMARoundTrip(t *testing.T) {
	ram := hostRAM()
	e := NewEndpoint("nic0", x16())
	e.AttachHostMemory(ram)
	payload := []byte("packet payload bytes")
	d, err := e.DMAWrite(0, 0x100, payload)
	if err != nil {
		t.Fatal(err)
	}
	if d < DMASetupLatency {
		t.Fatalf("DMA write latency %v below setup floor", d)
	}
	got := make([]byte, len(payload))
	d2, err := e.DMARead(d, 0x100, got)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= 0 {
		t.Fatal("DMA read latency must be positive")
	}
	if string(got) != string(payload) {
		t.Fatalf("DMA read back %q", got)
	}
	r, w, in, out := e.dmaReads, e.dmaWrites, e.dmaBytesIn, e.dmaBytesOut
	if r != 1 || w != 1 || in != uint64(len(payload)) || out != uint64(len(payload)) {
		t.Fatalf("stats = %d %d %d %d", r, w, in, out)
	}
}

func TestDMAWithoutTarget(t *testing.T) {
	e := NewEndpoint("nic0", x16())
	if _, err := e.DMARead(0, 0, make([]byte, 8)); !errors.Is(err, ErrNoDMATarget) {
		t.Fatalf("err = %v", err)
	}
}

func TestDMAToUnmappedAddress(t *testing.T) {
	e := NewEndpoint("nic0", x16())
	e.AttachHostMemory(hostRAM())
	if _, err := e.DMAWrite(0, 1<<30, make([]byte, 8)); !errors.Is(err, mem.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeviceFailure(t *testing.T) {
	e := NewEndpoint("nic0", x16())
	e.AttachHostMemory(hostRAM())
	e.Fail()
	if !e.Failed() {
		t.Fatal("Failed() false after Fail()")
	}
	if _, err := e.DMAWrite(0, 0, make([]byte, 8)); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("dma err = %v", err)
	}
	if _, err := e.DMARead(0, 0, make([]byte, 8)); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("dma read err = %v", err)
	}
	e.Repair()
	if _, err := e.DMAWrite(0, 0, make([]byte, 8)); err != nil {
		t.Fatalf("dma after repair: %v", err)
	}
}

func TestDMALinkSerialization(t *testing.T) {
	// A Gen5 x16 link moves 60 B/ns; two back-to-back 64KB DMAs must
	// serialize on the link.
	ram := mem.NewRegion("ddr", 0, 1<<20, mem.Timing{ReadLatency: 110}, nil)
	e := NewEndpoint("nic0", x16())
	e.AttachHostMemory(ram)
	buf := make([]byte, 65536)
	d1, err := e.DMARead(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.DMARead(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Fatalf("second DMA %v not delayed behind first %v", d2, d1)
	}
}

func BenchmarkDMAWrite1500(b *testing.B) {
	ram := hostRAM()
	e := NewEndpoint("nic0", x16())
	e.AttachHostMemory(ram)
	buf := make([]byte, 1500)
	for i := 0; i < b.N; i++ {
		if _, err := e.DMAWrite(sim.Time(i*1000), 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}
