package cxl

import (
	"errors"
	"testing"
	"testing/quick"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

func TestLinkBandwidth(t *testing.T) {
	if got := X8Gen5.Bandwidth(); got != 30 {
		t.Fatalf("x8 gen5 bandwidth = %v GB/s, want 30 (paper §3)", got)
	}
	if got := X16Gen5.Bandwidth(); got != 60 {
		t.Fatalf("x16 gen5 bandwidth = %v GB/s, want 60", got)
	}
	if got := (LinkConfig{Lanes: 8, Gen: 6}).Bandwidth(); got != 60 {
		t.Fatalf("x8 gen6 bandwidth = %v GB/s, want 60", got)
	}
}

func TestCXLLatencyMultiplierMatchesPaper(t *testing.T) {
	ratio := float64(CXLIdleReadLatency) / float64(DDRIdleReadLatency)
	if ratio < 2.0 || ratio > 3.0 {
		t.Fatalf("CXL/DDR idle latency ratio %.2f outside the paper's 2-3x", ratio)
	}
}

func newTestMHD(t *testing.T) *MHD {
	t.Helper()
	return NewMHD("test", 0x1000, 1<<20, 4, sim.NewRand(1))
}

func TestMHDConnectDisconnect(t *testing.T) {
	d := newTestMHD(t)
	if d.FreePorts() != 4 {
		t.Fatalf("free ports = %d", d.FreePorts())
	}
	var views []*PortView
	for i := 0; i < 4; i++ {
		v, err := d.Connect(X8Gen5)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	if _, err := d.Connect(X8Gen5); !errors.Is(err, ErrNoPorts) {
		t.Fatalf("5th connect err = %v", err)
	}
	if err := views[2].Detach(); err != nil {
		t.Fatal(err)
	}
	if d.FreePorts() != 1 {
		t.Fatalf("free ports after detach = %d", d.FreePorts())
	}
	if _, err := d.Connect(X8Gen5); err != nil {
		t.Fatalf("reconnect after detach: %v", err)
	}
	// Detached view is unusable.
	if _, err := views[2].ReadAt(0, 0x1000, make([]byte, 8)); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("detached read err = %v", err)
	}
	if err := views[2].Detach(); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("double detach err = %v", err)
	}
}

func TestPortViewLatencyInPaperRange(t *testing.T) {
	d := newTestMHD(t)
	v, err := d.Connect(X16Gen5)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	var total sim.Duration
	const n = 1000
	for i := 0; i < n; i++ {
		dur, err := v.ReadAt(sim.Time(i*10000), 0x1000, buf)
		if err != nil {
			t.Fatal(err)
		}
		total += dur
	}
	avg := float64(total) / n
	// Idle CXL load-to-use must land in the paper's 2-3x DDR window.
	if avg < 2.0*float64(DDRIdleReadLatency) || avg > 3.0*float64(DDRIdleReadLatency) {
		t.Fatalf("direct CXL read avg %.0fns outside [220,330]", avg)
	}
}

func TestPortViewDataIntegrityAcrossPorts(t *testing.T) {
	d := newTestMHD(t)
	v1, _ := d.Connect(X8Gen5)
	v2, _ := d.Connect(X8Gen5)
	msg := []byte("written via port 0, read via port 1")
	if _, err := v1.WriteAt(0, 0x2000, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := v2.ReadAt(100, 0x2000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("cross-port read = %q", got)
	}
}

func TestMHDFailureInjection(t *testing.T) {
	d := newTestMHD(t)
	v, _ := d.Connect(X8Gen5)
	buf := make([]byte, 8)
	d.Fail()
	if _, err := v.ReadAt(0, 0x1000, buf); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("failed read err = %v", err)
	}
	if _, err := v.WriteAt(0, 0x1000, buf); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("failed write err = %v", err)
	}
	d.Repair()
	if _, err := v.ReadAt(0, 0x1000, buf); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
}

func TestSwitchedViewAddsTraversalLatency(t *testing.T) {
	d := newTestMHD(t)
	direct, _ := d.Connect(X16Gen5)
	behind, _ := d.Connect(X16Gen5)
	sw := NewSwitch("sw0")
	switched, err := sw.Via(behind, X16Gen5)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	var dSum, sSum sim.Duration
	const n = 500
	for i := 0; i < n; i++ {
		now := sim.Time(i * 100000)
		dd, err := direct.ReadAt(now, 0x1000, buf)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := switched.ReadAt(now, 0x1000, buf)
		if err != nil {
			t.Fatal(err)
		}
		dSum += dd
		sSum += sd
	}
	davg, savg := float64(dSum)/n, float64(sSum)/n
	added := savg - davg
	if added < 250 {
		t.Fatalf("switch adds %.0fns, paper says >250ns", added)
	}
	// Total switched latency must land in the paper's 500-600ns band.
	if savg < 500 || savg > 650 {
		t.Fatalf("switched idle load-to-use %.0fns outside [500,650]", savg)
	}
}

func TestSwitchLaneExhaustion(t *testing.T) {
	sw := NewSwitch("sw")
	d := NewMHD("m", 0, 1<<16, MaxMHDPorts, nil)
	// 128 lanes / 16 per port = 8 attachments.
	for i := 0; i < 8; i++ {
		v, err := d.Connect(X16Gen5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Via(v, X16Gen5); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
	}
	v, err := d.Connect(X16Gen5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Via(v, X16Gen5); err == nil {
		t.Fatal("lane exhaustion not detected")
	}
	if sw.FreeLanes() != 0 {
		t.Fatalf("free lanes = %d", sw.FreeLanes())
	}
}

func TestInterleaveStripesAcrossMembers(t *testing.T) {
	// Two MHDs covering the same global range is not physical; instead
	// build two regions and confirm stripe routing via access counts.
	r0 := mem.NewRegion("m0", 0, 4096, mem.Timing{ReadLatency: 10}, nil)
	r1 := mem.NewRegion("m1", 0, 4096, mem.Timing{ReadLatency: 10}, nil)
	iv := NewInterleave(0, 4096, r0, r1)
	buf := make([]byte, 64)
	// Stripe 0 -> r0, stripe 1 -> r1.
	if _, err := iv.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := iv.ReadAt(0, 256, buf); err != nil {
		t.Fatal(err)
	}
	reads0, _, _, _ := r0.Stats()
	reads1, _, _, _ := r1.Stats()
	if reads0 != 1 || reads1 != 1 {
		t.Fatalf("stripe routing wrong: reads %d/%d", reads0, reads1)
	}
}

func TestInterleaveSplitsSpanningAccess(t *testing.T) {
	r0 := mem.NewRegion("m0", 0, 4096, mem.Timing{ReadLatency: 10}, nil)
	r1 := mem.NewRegion("m1", 0, 4096, mem.Timing{ReadLatency: 10}, nil)
	iv := NewInterleave(0, 4096, r0, r1)
	// Write 600B spanning stripes 0,1,2 -> r0 gets stripes 0,2; r1 gets 1.
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := iv.WriteAt(0, 0, data); err != nil {
		t.Fatal(err)
	}
	_, w0, _, b0 := r0.Stats()
	_, w1, _, b1 := r1.Stats()
	if w0 != 2 || w1 != 1 {
		t.Fatalf("split writes = %d/%d, want 2/1", w0, w1)
	}
	if b0+b1 != 600 {
		t.Fatalf("bytes split %d+%d != 600", b0, b1)
	}
	// Read back through the interleave and verify content.
	got := make([]byte, 600)
	if _, err := iv.ReadAt(100, 0, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("interleave data mismatch at %d", i)
		}
	}
}

func TestInterleaveParallelLatency(t *testing.T) {
	// Latency of a spanning access is max of parts, not sum.
	r0 := mem.NewRegion("m0", 0, 4096, mem.Timing{ReadLatency: 100}, nil)
	r1 := mem.NewRegion("m1", 0, 4096, mem.Timing{ReadLatency: 100}, nil)
	iv := NewInterleave(0, 4096, r0, r1)
	buf := make([]byte, 512) // spans exactly 2 stripes
	d, err := iv.ReadAt(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d != 100 {
		t.Fatalf("parallel read latency = %v, want 100 (max of parts)", d)
	}
}

func TestInterleaveOutOfRange(t *testing.T) {
	r0 := mem.NewRegion("m0", 0, 4096, mem.Timing{}, nil)
	iv := NewInterleave(0, 4096, r0)
	if _, err := iv.ReadAt(0, 4090, make([]byte, 64)); !errors.Is(err, mem.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func newTestPod(t *testing.T, hosts int) *Pod {
	t.Helper()
	p, err := NewPod("pod0", PodConfig{
		Devices:        2,
		PortsPerDevice: 8,
		DeviceSize:     1 << 22,
		SharedSize:     1 << 20,
	}, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hosts; i++ {
		if _, err := p.AttachHost(hostName(i)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func hostName(i int) string { return string(rune('A' + i)) }

func TestPodAttachDetach(t *testing.T) {
	p := newTestPod(t, 4)
	if len(p.Hosts()) != 4 {
		t.Fatalf("hosts = %v", p.Hosts())
	}
	if p.Redundancy() != 2 {
		t.Fatalf("redundancy = %d", p.Redundancy())
	}
	if _, err := p.AttachHost("A"); err == nil {
		t.Fatal("duplicate attach not rejected")
	}
	if err := p.DetachHost("B"); err != nil {
		t.Fatal(err)
	}
	if err := p.DetachHost("B"); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("double detach err = %v", err)
	}
	if len(p.Hosts()) != 3 {
		t.Fatalf("hosts after detach = %v", p.Hosts())
	}
	// Port freed: a new host can attach.
	if _, err := p.AttachHost("Z"); err != nil {
		t.Fatal(err)
	}
}

func TestPodPortExhaustion(t *testing.T) {
	p := newTestPod(t, 8)
	if _, err := p.AttachHost("I"); err == nil {
		t.Fatal("9th host on 8-port devices should fail")
	}
}

func TestPodSharedSegmentVisibleToAllHosts(t *testing.T) {
	p := newTestPod(t, 2)
	a, _ := p.Attachment("A")
	b, _ := p.Attachment("B")
	msg := []byte("shared cxl segment")
	addr := p.SharedBase() + 128
	if _, err := a.Memory().WriteAt(0, addr, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := b.Memory().ReadAt(1000, addr, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("host B read %q", got)
	}
}

func TestPodDynamicCapacity(t *testing.T) {
	p := newTestPod(t, 2)
	a, _ := p.Attachment("A")
	free0 := p.FreeCapacity()
	addr, err := a.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if p.FreeCapacity() >= free0 {
		t.Fatal("allocation did not consume capacity")
	}
	if addr < p.SharedBase()+mem.Address(p.SharedSize()) {
		t.Fatal("dynamic allocation overlaps shared segment")
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if p.FreeCapacity() != free0 {
		t.Fatal("free did not restore capacity")
	}
	if err := a.Free(addr); err == nil {
		t.Fatal("double free not rejected")
	}
}

func TestPodDetachReleasesAllocations(t *testing.T) {
	p := newTestPod(t, 2)
	a, _ := p.Attachment("A")
	free0 := p.FreeCapacity()
	if _, err := a.Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := p.DetachHost("A"); err != nil {
		t.Fatal(err)
	}
	if p.FreeCapacity() != free0 {
		t.Fatalf("detach leaked pool capacity: %d != %d", p.FreeCapacity(), free0)
	}
	// The detached handle reports nothing held: the pool took it back.
	if got := a.AllocatedBytes(); got != 0 {
		t.Fatalf("detached AllocatedBytes = %d, want 0", got)
	}
	// Allocation through a detached attachment fails.
	if _, err := a.Alloc(64); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("alloc after detach err = %v", err)
	}
}

func TestPodConfigValidation(t *testing.T) {
	rng := sim.NewRand(1)
	bad := []PodConfig{
		{Devices: 0, PortsPerDevice: 4, DeviceSize: 1 << 20},
		{Devices: 1, PortsPerDevice: 0, DeviceSize: 1 << 20},
		{Devices: 1, PortsPerDevice: 99, DeviceSize: 1 << 20},
		{Devices: 1, PortsPerDevice: 4, DeviceSize: 0},
		{Devices: 2, PortsPerDevice: 4, DeviceSize: 1<<20 + 100}, // not whole stripes
		{Devices: 1, PortsPerDevice: 4, DeviceSize: 1 << 20, SharedSize: 1 << 21},
	}
	for i, cfg := range bad {
		if _, err := NewPod("p", cfg, rng); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestLinkCongestionUnderLoad(t *testing.T) {
	d := NewMHD("m", 0, 1<<20, 2, nil)
	v, _ := d.Connect(X8Gen5)
	// Hammer 4KB reads back-to-back at the same instant: the x8 link
	// must serialize them.
	buf := make([]byte, 4096)
	d1, _ := v.ReadAt(0, 0, buf)
	d2, _ := v.ReadAt(0, 0, buf)
	if d2 <= d1 {
		t.Fatalf("no serialization on link: %v then %v", d1, d2)
	}
	if v.Link().CongestionEvents() == 0 {
		t.Fatal("congestion not recorded")
	}
	tx, rx := v.Link().BytesMoved()
	if tx == 0 || rx != 8192 {
		t.Fatalf("bytes moved tx=%d rx=%d", tx, rx)
	}
}

// Property: data written through any port is read back identically
// through any other port at any later time.
func TestCrossPortConsistencyProperty(t *testing.T) {
	if err := quick.Check(func(data []byte, offset uint16) bool {
		if len(data) == 0 || len(data) > 1024 {
			return true
		}
		d := NewMHD("m", 0, 1<<16, 4, nil)
		w, _ := d.Connect(X8Gen5)
		r, _ := d.Connect(X8Gen5)
		addr := mem.Address(offset % 32768)
		if _, err := w.WriteAt(0, addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := r.ReadAt(10000, addr, got); err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPortViewRead64(b *testing.B) {
	d := NewMHD("m", 0, 1<<20, 2, sim.NewRand(1))
	v, _ := d.Connect(X16Gen5)
	buf := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		if _, err := v.ReadAt(sim.Time(i*1000), 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterleaveRead4K(b *testing.B) {
	r0 := mem.NewRegion("m0", 0, 1<<20, mem.Timing{ReadLatency: 237, Bandwidth: 30}, nil)
	r1 := mem.NewRegion("m1", 0, 1<<20, mem.Timing{ReadLatency: 237, Bandwidth: 30}, nil)
	iv := NewInterleave(0, 1<<20, r0, r1)
	buf := make([]byte, 4096)
	for i := 0; i < b.N; i++ {
		if _, err := iv.ReadAt(sim.Time(i*10000), 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}
