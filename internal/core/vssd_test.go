package core

import (
	"errors"
	"testing"

	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

// ssdRig: host0 (diskless user) + host1 with one SSD.
func ssdRig(t testing.TB) (*Pod, *Host, *Host, *ssdsim.SSD) {
	t.Helper()
	p, err := NewPod(Config{Hosts: 2, NICsPerHost: 0, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	ssd, err := h1.AddSSD("host1-ssd0", 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	return p, h0, h1, ssd
}

func TestHostSSDRegistry(t *testing.T) {
	_, _, h1, _ := ssdRig(t)
	if _, err := h1.AddSSD("host1-ssd0", 1<<20); err == nil {
		t.Fatal("duplicate SSD accepted")
	}
}

func TestVirtualSSDWriteReadRemote(t *testing.T) {
	p, h0, h1, ssd := ssdRig(t)
	v := NewVirtualSSD(h0, "vssd0", VSSDConfig{})
	if _, err := v.Bind(h1, ssd); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, ssdsim.SectorSize)
	copy(payload, "remote nvme write through cxl pool")

	var wrote bool
	if _, err := v.Write(0, 4096, payload, func(_ sim.Time, _ []byte, err error) {
		if err != nil {
			t.Errorf("write failed: %v", err)
		}
		wrote = true
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("write never completed")
	}

	var got []byte
	var doneAt sim.Time
	start := p.Engine.Now()
	if _, err := v.Read(start, 4096, ssdsim.SectorSize, func(now sim.Time, data []byte, err error) {
		if err != nil {
			t.Errorf("read failed: %v", err)
		}
		// data is the vSSD's reusable scratch: copy to retain.
		got = append([]byte(nil), data...)
		doneAt = now
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(start + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if string(got[:34]) != "remote nvme write through cxl pool" {
		t.Fatalf("read back %q", got[:34])
	}
	// End-to-end latency dominated by NAND (65us), forwarding adds a
	// few microseconds at most.
	e2e := doneAt - start
	if e2e < ssdsim.ReadLatency {
		t.Fatalf("remote read %v below NAND floor %v", e2e, ssdsim.ReadLatency)
	}
	if e2e > ssdsim.ReadLatency+20*sim.Microsecond {
		t.Fatalf("remote read %v: forwarding overhead too high", e2e)
	}
	sub, comp, ioErr, _ := v.stats()
	if sub != 2 || comp != 2 || ioErr != 0 {
		t.Fatalf("stats sub=%d comp=%d err=%d", sub, comp, ioErr)
	}
}

func TestVirtualSSDForwardingOverheadSmall(t *testing.T) {
	// The paper's argument: NVMe latency dwarfs pool forwarding. Compare
	// remote-pooled reads against local submits on an identical device.
	p, h0, h1, ssd := ssdRig(t)

	// Local baseline: host1 reads from its own SSD into its own DDR.
	local, err := h1.AddSSD("host1-ssd-local", 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	var localSum sim.Duration
	var localN int
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		err := local.Submit(now, ssdsim.OpRead, int64(i)*ssdsim.SectorSize, ssdsim.SectorSize, 0,
			func(c ssdsim.Completion) {
				localSum += c.Latency
				localN++
			})
		if err != nil {
			t.Fatal(err)
		}
		now += 200 * sim.Microsecond
		if _, err := p.Engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	}
	localMean := float64(localSum) / float64(localN)

	// Remote pooled path.
	v := NewVirtualSSD(h0, "v", VSSDConfig{})
	if _, err := v.Bind(h1, ssd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := v.Read(now, int64(i)*ssdsim.SectorSize, ssdsim.SectorSize, nil); err != nil {
			t.Fatal(err)
		}
		now += 200 * sim.Microsecond
		if _, err := p.Engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	}
	remote := v.Latency.Percentile(50)
	overhead := (remote - localMean) / localMean
	if overhead > 0.05 {
		t.Fatalf("pooling overhead %.1f%% over local (%.0fus vs %.0fus); paper: within 5%%",
			overhead*100, remote/1e3, localMean/1e3)
	}
	if overhead < 0 {
		t.Fatalf("remote read %.0fus cheaper than local %.0fus: impossible", remote/1e3, localMean/1e3)
	}
}

func TestVirtualSSDBackpressure(t *testing.T) {
	p, h0, h1, ssd := ssdRig(t)
	v := NewVirtualSSD(h0, "v", VSSDConfig{Buffers: 2})
	if _, err := v.Bind(h1, ssd); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read(0, 0, ssdsim.SectorSize, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read(0, 0, ssdsim.SectorSize, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read(0, 0, ssdsim.SectorSize, nil); !errors.Is(err, ErrNoIOBuffer) {
		t.Fatalf("err = %v", err)
	}
	// Buffers come back after completion.
	if _, err := p.Engine.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read(p.Engine.Now(), 0, ssdsim.SectorSize, nil); err != nil {
		t.Fatalf("read after drain: %v", err)
	}
}

func TestVirtualSSDValidation(t *testing.T) {
	_, h0, h1, ssd := ssdRig(t)
	v := NewVirtualSSD(h0, "v", VSSDConfig{BufSize: 4096})
	if _, err := v.Read(0, 0, 4096, nil); !errors.Is(err, ErrNotBound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := v.Bind(h1, ssd); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read(0, 0, 8192, nil); !errors.Is(err, ErrIOTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestVirtualSSDRemapAbortsOutstanding(t *testing.T) {
	p, h0, h1, ssd := ssdRig(t)
	ssd2, err := h0.AddSSD("host0-ssd0", 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVirtualSSD(h0, "v", VSSDConfig{})
	if _, err := v.Bind(h1, ssd); err != nil {
		t.Fatal(err)
	}
	var aborted bool
	if _, err := v.Read(0, 0, ssdsim.SectorSize, func(_ sim.Time, _ []byte, err error) {
		if err != nil {
			aborted = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Remap before the I/O completes (NAND takes 65us).
	if _, err := v.Remap(h0, ssd2); err != nil {
		t.Fatal(err)
	}
	if !aborted {
		t.Fatal("outstanding I/O not aborted by remap")
	}
	_, _, ioErr, remaps := v.stats()
	if ioErr != 1 || remaps != 1 {
		t.Fatalf("stats err=%d remaps=%d", ioErr, remaps)
	}
	// New device serves I/O.
	var ok bool
	now := p.Engine.Now()
	if _, err := v.Read(now, 0, ssdsim.SectorSize, func(_ sim.Time, _ []byte, err error) {
		ok = err == nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(now + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("I/O after remap failed")
	}
}

func TestVirtualSSDDeviceFailureReported(t *testing.T) {
	p, h0, h1, ssd := ssdRig(t)
	v := NewVirtualSSD(h0, "v", VSSDConfig{})
	if _, err := v.Bind(h1, ssd); err != nil {
		t.Fatal(err)
	}
	ssd.Fail()
	var gotErr error
	if _, err := v.Read(0, 0, ssdsim.SectorSize, func(_ sim.Time, _ []byte, err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("failed device did not propagate an error to the user host")
	}
}

func BenchmarkVirtualSSDRead4K(b *testing.B) {
	p, h0, h1, ssd := ssdRig(b)
	v := NewVirtualSSD(h0, "v", VSSDConfig{Buffers: 64})
	if _, err := v.Bind(h1, ssd); err != nil {
		b.Fatal(err)
	}
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Read(now, 0, ssdsim.SectorSize, nil); err != nil {
			// Out of buffers: drain.
			if _, err := p.Engine.RunUntil(now + 500*sim.Microsecond); err != nil {
				b.Fatal(err)
			}
		}
		now += 10 * sim.Microsecond
		if i%32 == 0 {
			if _, err := p.Engine.RunUntil(now); err != nil {
				b.Fatal(err)
			}
		}
	}
}
