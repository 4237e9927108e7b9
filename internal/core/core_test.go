package core

import (
	"errors"
	"testing"

	"cxlpool/internal/sim"
)

// newTestPod builds a small pod: 4 hosts, 1 NIC each.
func newTestPod(t testing.TB, hosts int) *Pod {
	t.Helper()
	p, err := NewPod(Config{Hosts: hosts, NICsPerHost: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDescriptorRoundTrip(t *testing.T) {
	d := descriptor{kind: descTx, len: 1500, addr: 0x4000_0000_1234, stamp: 98765, name: "host2-nic0"}
	enc, err := d.encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != descSize {
		t.Fatalf("encoded size = %d", len(enc))
	}
	got, err := decodeDescriptor(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip: %+v != %+v", got, d)
	}
}

func TestDescriptorValidation(t *testing.T) {
	if _, err := (descriptor{kind: descTx, name: "this-name-is-way-too-long-for-a-slot"}).encode(); err == nil {
		t.Fatal("long name accepted")
	}
	if _, err := decodeDescriptor(make([]byte, 10)); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := make([]byte, descSize)
	bad[0] = 200
	if _, err := decodeDescriptor(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPodConstruction(t *testing.T) {
	p := newTestPod(t, 4)
	if len(p.Hosts()) != 4 {
		t.Fatalf("hosts = %v", p.Hosts())
	}
	h, err := p.Host("host0")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.NICs()) != 1 {
		t.Fatalf("NICs = %d", len(h.NICs()))
	}
	if _, err := p.Host("ghost"); err == nil {
		t.Fatal("unknown host found")
	}
	if _, err := h.NIC("ghost"); err == nil {
		t.Fatal("unknown NIC found")
	}
	if _, err := h.AddNIC("host0-nic0"); err == nil {
		t.Fatal("duplicate NIC accepted")
	}
	if _, err := NewPod(Config{Hosts: 0}); err == nil {
		t.Fatal("empty pod accepted")
	}
}

// TestRemoteVNICDatapath is the core §4.1 scenario: host0 drives a NIC
// that is physically attached to host1, entirely through CXL shared
// memory, and the packet reaches a third host's NIC.
func TestRemoteVNICDatapath(t *testing.T) {
	p := newTestPod(t, 3)
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	h2, _ := p.Host("host2")

	// host0's virtual NIC backed by host1's physical NIC.
	v := NewVirtualNIC(h0, "vnic0", VNICConfig{BufSize: 2048})
	if _, err := v.Bind(h1, "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	// host2 receives directly on its own NIC via a local vNIC.
	rcv := NewVirtualNIC(h2, "vnic2", VNICConfig{BufSize: 2048})
	if _, err := rcv.Bind(h2, "host2-nic0"); err != nil {
		t.Fatal(err)
	}
	var got []byte
	var gotSrc string
	var gotAt sim.Time
	rcv.OnReceive(func(now sim.Time, src string, payload []byte) {
		got = payload
		gotSrc = src
		gotAt = now
	})

	msg := []byte("pooled pcie packet routed through cxl shared memory")
	d, err := v.Send(0, "host2-nic0", msg)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("send cost must be positive")
	}
	if _, err := p.Engine.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("delivered %q", got)
	}
	if gotSrc != "host1-nic0" {
		t.Fatalf("source = %q (must be the physical NIC)", gotSrc)
	}
	if gotAt <= 0 {
		t.Fatal("no delivery time")
	}
	sent, _, txErr, _ := v.Stats()
	_, delivered, _, _ := rcv.Stats()
	if sent != 1 || delivered != 1 || txErr != 0 {
		t.Fatalf("stats sent=%d delivered=%d errs=%d", sent, delivered, txErr)
	}
	if h1.agent.forwarded != 1 {
		t.Fatalf("owner agent forwarded = %d", h1.agent.forwarded)
	}
}

func TestVNICManyPacketsAllDelivered(t *testing.T) {
	p := newTestPod(t, 2)
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	v := NewVirtualNIC(h0, "v0", VNICConfig{BufSize: 1600, TxBuffers: 128, RxBuffers: 128})
	if _, err := v.Bind(h1, "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	echo := NewVirtualNIC(h1, "v1", VNICConfig{BufSize: 1600, RxBuffers: 128})
	// host1 also receives on host0's physical NIC: cross binding.
	if _, err := echo.Bind(h0, "host0-nic0"); err != nil {
		t.Fatal(err)
	}
	var rx int
	seen := map[byte]bool{}
	echo.OnReceive(func(_ sim.Time, _ string, payload []byte) {
		rx++
		seen[payload[0]] = true
	})
	const n = 50
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		msg := make([]byte, 1500)
		msg[0] = byte(i)
		d, err := v.Send(now, "host0-nic0", msg)
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		now += d + 2000 // ~400kpps offered
	}
	if _, err := p.Engine.RunUntil(now + 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rx != n {
		t.Fatalf("delivered %d/%d", rx, n)
	}
	if len(seen) != n {
		t.Fatalf("distinct payloads %d/%d", len(seen), n)
	}
	// RX buffers must have been recycled (n > RxBuffers would otherwise
	// stall; here n < buffers, but repost traffic must still have run).
	if v.E2ELatency.Count() == 0 && echo.E2ELatency.Count() == 0 {
		t.Fatal("no E2E latency samples")
	}
}

func TestVNICRxBufferRecycling(t *testing.T) {
	p := newTestPod(t, 2)
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	v := NewVirtualNIC(h0, "v0", VNICConfig{BufSize: 256, TxBuffers: 64, RxBuffers: 4})
	if _, err := v.Bind(h1, "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	sink := NewVirtualNIC(h1, "v1", VNICConfig{BufSize: 256, RxBuffers: 4})
	if _, err := sink.Bind(h0, "host0-nic0"); err != nil {
		t.Fatal(err)
	}
	var rx int
	sink.OnReceive(func(_ sim.Time, _ string, _ []byte) { rx++ })
	// 20 packets through a 4-buffer RX ring: only possible with
	// recycling. The engine runs between sends so the buffers actually
	// cycle (a burst of 20 into a 4-deep ring would tail-drop, as on
	// real hardware).
	now := sim.Time(0)
	for i := 0; i < 20; i++ {
		d, err := v.Send(now, "host0-nic0", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		now += d + 20_000 // slow enough for recycling
		if _, err := p.Engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Engine.RunUntil(now + 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rx != 20 {
		t.Fatalf("delivered %d/20 (recycling broken)", rx)
	}
}

func TestVNICSendValidation(t *testing.T) {
	p := newTestPod(t, 2)
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	v := NewVirtualNIC(h0, "v0", VNICConfig{BufSize: 128, TxBuffers: 1})
	if _, err := v.Send(0, "x", []byte("unbound")); !errors.Is(err, ErrNotBound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := v.Bind(h1, "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Send(0, "x", make([]byte, 200)); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("err = %v", err)
	}
	// Exhaust the single TX buffer without letting completions run.
	if _, err := v.Send(0, "host1-nic0", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Send(0, "host1-nic0", []byte("b")); !errors.Is(err, ErrNoTxBuffer) {
		t.Fatalf("err = %v", err)
	}
}

func TestVNICFailoverRemap(t *testing.T) {
	p := newTestPod(t, 3)
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	h2, _ := p.Host("host2")
	v := NewVirtualNIC(h0, "v0", VNICConfig{BufSize: 512})
	if _, err := v.Bind(h1, "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	sink := NewVirtualNIC(h2, "vs", VNICConfig{BufSize: 512})
	if _, err := sink.Bind(h2, "host2-nic0"); err != nil {
		t.Fatal(err)
	}
	var rx int
	sink.OnReceive(func(_ sim.Time, _ string, _ []byte) { rx++ })

	if _, err := v.Send(0, "host2-nic0", []byte("before")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rx != 1 {
		t.Fatalf("pre-failure delivery = %d", rx)
	}

	// Kill host1's NIC; sends now fail at the owner (txErrors) until
	// the device is remapped to host0's own NIC.
	nic1, _ := h1.NIC("host1-nic0")
	nic1.Fail()
	now := p.Engine.Now()
	if _, err := v.Send(now, "host2-nic0", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(now + 2*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rx != 1 {
		t.Fatalf("packet delivered through failed NIC (rx=%d)", rx)
	}
	_, _, txErr, _ := v.Stats()
	if txErr == 0 {
		t.Fatal("owner agent did not observe the device failure")
	}

	// Failover: remap to host0's local NIC.
	if _, err := v.Remap(h0, "host0-nic0"); err != nil {
		t.Fatal(err)
	}
	now = p.Engine.Now()
	if _, err := v.Send(now, "host2-nic0", []byte("after")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(now + 2*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rx != 2 {
		t.Fatalf("post-failover delivery = %d", rx)
	}
	_, _, _, remaps := v.Stats()
	if remaps != 1 {
		t.Fatalf("remaps = %d", remaps)
	}
}

func TestHostHotRemove(t *testing.T) {
	p := newTestPod(t, 3)
	if err := p.DetachHost("host1"); err != nil {
		t.Fatal(err)
	}
	if len(p.Hosts()) != 2 {
		t.Fatalf("hosts = %v", p.Hosts())
	}
	if err := p.DetachHost("host1"); err == nil {
		t.Fatal("double detach accepted")
	}
	// Pod still functions for the remaining hosts.
	h0, _ := p.Host("host0")
	h2, _ := p.Host("host2")
	v := NewVirtualNIC(h0, "v", VNICConfig{BufSize: 256})
	if _, err := v.Bind(h2, "host2-nic0"); err != nil {
		t.Fatal(err)
	}
	sink := NewVirtualNIC(h2, "s", VNICConfig{BufSize: 256})
	if _, err := sink.Bind(h0, "host0-nic0"); err != nil {
		t.Fatal(err)
	}
	var rx int
	sink.OnReceive(func(_ sim.Time, _ string, _ []byte) { rx++ })
	now := p.Engine.Now()
	if _, err := v.Send(now, "host0-nic0", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(now + 2*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rx != 1 {
		t.Fatal("pod broken after hot-remove")
	}
}

func TestRemoteSendCostSubMicrosecondScale(t *testing.T) {
	p := newTestPod(t, 2)
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	v := NewVirtualNIC(h0, "v0", VNICConfig{BufSize: 256, TxBuffers: 256})
	if _, err := v.Bind(h1, "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		d, err := v.Send(now, "host1-nic0", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		now += d + 10_000
		if _, err := p.Engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	}
	p50 := v.SendLatency.Percentile(50)
	// User-side handoff = one NT store + one channel send: well under
	// 1.5us on direct CXL links.
	if p50 > 1500 {
		t.Fatalf("send handoff p50 = %.0fns, want sub-1.5us", p50)
	}
	if p50 < 200 {
		t.Fatalf("send handoff p50 = %.0fns, implausibly cheap", p50)
	}
}

func TestVNICDeterminism(t *testing.T) {
	run := func() float64 {
		p := newTestPod(t, 2)
		h0, _ := p.Host("host0")
		h1, _ := p.Host("host1")
		v := NewVirtualNIC(h0, "v0", VNICConfig{BufSize: 512, TxBuffers: 64})
		if _, err := v.Bind(h1, "host1-nic0"); err != nil {
			t.Fatal(err)
		}
		sink := NewVirtualNIC(h1, "s", VNICConfig{BufSize: 512})
		if _, err := sink.Bind(h0, "host0-nic0"); err != nil {
			t.Fatal(err)
		}
		now := sim.Time(0)
		for i := 0; i < 30; i++ {
			d, err := v.Send(now, "host0-nic0", []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			now += d + 5000
		}
		if _, err := p.Engine.RunUntil(now + 5*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return sink.E2ELatency.Percentile(50)
	}
	if run() != run() {
		t.Fatal("vNIC datapath not deterministic")
	}
}

func BenchmarkVNICRemoteSend(b *testing.B) {
	p := newTestPod(b, 2)
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	v := NewVirtualNIC(h0, "v0", VNICConfig{BufSize: 2048, TxBuffers: 512, RxBuffers: 512, ChannelSlots: 2048})
	if _, err := v.Bind(h1, "host1-nic0"); err != nil {
		b.Fatal(err)
	}
	sink := NewVirtualNIC(h1, "s", VNICConfig{BufSize: 2048, RxBuffers: 512, ChannelSlots: 2048})
	if _, err := sink.Bind(h0, "host0-nic0"); err != nil {
		b.Fatal(err)
	}
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := v.Send(now, "host0-nic0", []byte("benchmark payload"))
		if err != nil {
			b.Fatal(err)
		}
		now += d + 3000
		if i%128 == 0 {
			if _, err := p.Engine.RunUntil(now); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkVNICBindUnbind is the control-plane cost of one tenant
// binding at steady state: a remote bind in the cluster's tenant vNIC
// shape (9216 B buffers, 256 TX and 8 RX, two 512-slot channels)
// followed by its unbind. One agent poll per iteration lets both
// agents drop the dead services, as the epoch loop does between binds.
// A first, untimed cycle grows the vNIC's and NIC's slices, so even a
// one-iteration run measures the steady state.
func BenchmarkVNICBindUnbind(b *testing.B) {
	p, err := NewPod(Config{Hosts: 2, NICsPerHost: 1, Seed: 7, AgentPollInterval: sim.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	v := NewVirtualNIC(h0, "t0", VNICConfig{BufSize: 9216, TxBuffers: 256, RxBuffers: 8, ChannelSlots: 512})
	cycle := func() {
		if _, err := v.Bind(h1, "host1-nic0"); err != nil {
			b.Fatal(err)
		}
		v.Unbind()
		if _, err := p.Engine.RunUntil(p.Engine.Now() + sim.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
