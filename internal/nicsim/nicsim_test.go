package nicsim

import (
	"errors"
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/sim"
)

// rig builds two NICs (a, b) on one fabric, each with its own DDR.
type rig struct {
	engine *sim.Engine
	fabric *netsim.Fabric
	a, b   *NIC
	memA   *mem.Region
	memB   *mem.Region
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	f := netsim.NewFabric("tor", e)
	r := &rig{engine: e, fabric: f}
	r.memA = mem.NewRegion("ddrA", 0, 1<<20, mem.Timing{ReadLatency: 110, WriteLatency: 80, Bandwidth: 38.4}, nil)
	r.memB = mem.NewRegion("ddrB", 0, 1<<20, mem.Timing{ReadLatency: 110, WriteLatency: 80, Bandwidth: 38.4}, nil)
	r.a = New("a", Config{})
	r.b = New("b", Config{})
	r.a.AttachHostMemory(r.memA)
	r.b.AttachHostMemory(r.memB)
	r.a.AttachFabric(f)
	r.b.AttachFabric(f)
	if err := f.Attach("a", r.a.LineRate(), r.a); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach("b", r.b.LineRate(), r.b); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTransmitReceiveEndToEnd(t *testing.T) {
	r := newRig(t)
	payload := []byte("udp payload over simulated wire")
	if err := r.memA.Poke(0x100, payload); err != nil {
		t.Fatal(err)
	}
	if err := r.b.PostRxBuffer(0x200, 2048); err != nil {
		t.Fatal(err)
	}
	var done bool
	r.b.OnReceive(func(now sim.Time, c RxCompletion) {
		done = true
		if c.Len != len(payload) {
			t.Errorf("rx len = %d", c.Len)
		}
		got := make([]byte, c.Len)
		if err := r.memB.Peek(c.Addr, got); err != nil {
			t.Error(err)
		}
		if string(got) != string(payload) {
			t.Errorf("rx data = %q", got)
		}
		if now <= 0 {
			t.Error("rx completion at time zero")
		}
	})
	if _, err := r.a.Transmit(0, 0x100, len(payload), "b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("packet never delivered")
	}
	tx, _, txb, _, _ := r.a.Stats()
	_, rxp, _, rxb, drops := r.b.Stats()
	if tx != 1 || rxp != 1 || txb != uint64(len(payload)) || rxb != uint64(len(payload)) || drops != 0 {
		t.Fatalf("stats tx=%d rx=%d txb=%d rxb=%d drops=%d", tx, rxp, txb, rxb, drops)
	}
}

func TestRxDropWithoutBuffer(t *testing.T) {
	r := newRig(t)
	if err := r.memA.Poke(0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.a.Transmit(0, 0, 4, "b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	_, rxp, _, _, drops := r.b.Stats()
	if rxp != 0 || drops != 1 {
		t.Fatalf("rx=%d drops=%d", rxp, drops)
	}
}

// send transmits an n-byte frame from a (its memory at 0) to b and runs
// the fabric dry.
func (r *rig) send(t *testing.T, n int) {
	t.Helper()
	if _, err := r.a.Transmit(r.engine.Now(), 0, n, "b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// A frame too large for the posted buffer is dropped, and the buffer
// stays posted for the next frame that fits.
func TestRxDropBufferTooSmall(t *testing.T) {
	r := newRig(t)
	if err := r.b.PostRxBuffer(0, 8); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 100)
	if err := r.memA.Poke(0, big); err != nil {
		t.Fatal(err)
	}
	var rx int
	r.b.OnReceive(func(sim.Time, RxCompletion) { rx++ })
	r.send(t, 100)
	_, _, _, _, drops := r.b.Stats()
	if drops != 1 {
		t.Fatalf("drops = %d", drops)
	}
	if got := r.b.RxRingLen(); got != 1 {
		t.Fatalf("RX ring holds %d buffers after the drop, want 1", got)
	}
	r.send(t, 8)
	if rx != 1 || r.b.RxRingLen() != 0 {
		t.Fatalf("fitting frame: delivered %d, ring %d; want 1, 0", rx, r.b.RxRingLen())
	}
}

// failWrites is host memory whose writes fail while on is set.
type failWrites struct {
	mem.Memory
	on bool
}

func (m *failWrites) WriteAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if m.on {
		return 0, errors.New("injected DMA write failure")
	}
	return m.Memory.WriteAt(now, a, buf)
}

// A frame whose DMA write fails is dropped, and its buffer stays posted
// for the next frame.
func TestRxDMAFailureRepostsBuffer(t *testing.T) {
	r := newRig(t)
	host := &failWrites{Memory: r.memB}
	r.b.AttachHostMemory(host)
	if err := r.b.PostRxBuffer(0, 2048); err != nil {
		t.Fatal(err)
	}
	if err := r.memA.Poke(0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	var rx int
	r.b.OnReceive(func(sim.Time, RxCompletion) { rx++ })
	host.on = true
	r.send(t, 4)
	_, _, _, _, drops := r.b.Stats()
	if rx != 0 || drops != 1 || r.b.RxRingLen() != 1 {
		t.Fatalf("failed DMA: delivered %d, drops %d, ring %d; want 0, 1, 1", rx, drops, r.b.RxRingLen())
	}
	host.on = false
	r.send(t, 4)
	if rx != 1 || r.b.RxRingLen() != 0 {
		t.Fatalf("after repair: delivered %d, ring %d; want 1, 0", rx, r.b.RxRingLen())
	}
}

func TestFailedNICDropsRx(t *testing.T) {
	r := newRig(t)
	if err := r.b.PostRxBuffer(0, 2048); err != nil {
		t.Fatal(err)
	}
	if err := r.memA.Poke(0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	r.b.Fail()
	if !r.b.Failed() {
		t.Fatal("Failed() false")
	}
	if _, err := r.a.Transmit(0, 0, 4, "b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	_, rxp, _, _, drops := r.b.Stats()
	if rxp != 0 || drops != 1 {
		t.Fatalf("failed NIC: rx=%d drops=%d", rxp, drops)
	}
}

func TestFailedNICRejectsTx(t *testing.T) {
	r := newRig(t)
	r.a.Fail()
	if _, err := r.a.Transmit(0, 0, 4, "b", 0); err == nil {
		t.Fatal("failed NIC transmitted")
	}
	r.a.Repair()
	if err := r.memA.Poke(0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.a.Transmit(0, 0, 4, "b", 0); err != nil {
		t.Fatalf("repaired NIC tx: %v", err)
	}
}

func TestMTUEnforced(t *testing.T) {
	r := newRig(t)
	if _, err := r.a.Transmit(0, 0, MTU+1, "b", 0); err == nil {
		t.Fatal("over-MTU transmit accepted")
	}
}

func TestUnwiredNIC(t *testing.T) {
	n := New("lone", Config{})
	n.AttachHostMemory(mem.NewRegion("m", 0, 4096, mem.Timing{}, nil))
	if _, err := n.Transmit(0, 0, 4, "b", 0); err != ErrNotWired {
		t.Fatalf("err = %v", err)
	}
}

func TestRxRingDepthBound(t *testing.T) {
	n := New("x", Config{RxRingDepth: 2})
	if err := n.PostRxBuffer(0, 64); err != nil {
		t.Fatal(err)
	}
	if err := n.PostRxBuffer(64, 64); err != nil {
		t.Fatal(err)
	}
	if err := n.PostRxBuffer(128, 64); err == nil {
		t.Fatal("ring overpost accepted")
	}
	if n.RxRingLen() != 2 {
		t.Fatalf("ring len = %d", n.RxRingLen())
	}
}

func TestLineRateSerialization(t *testing.T) {
	r := newRig(t)
	// 9000B at 12.5 GB/s = 720ns wire time + headers. Two back-to-back
	// transmits: second must leave later.
	big := make([]byte, 9000)
	if err := r.memA.Poke(0, big); err != nil {
		t.Fatal(err)
	}
	d1, err := r.a.Transmit(0, 0, 9000, "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.a.Transmit(0, 0, 9000, "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Fatalf("tx not serialized: %v then %v", d1, d2)
	}
}

func TestManyPacketsInOrder(t *testing.T) {
	r := newRig(t)
	const n = 100
	for i := 0; i < n; i++ {
		if err := r.b.PostRxBuffer(mem.Address(i*128), 128); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []uint64
	r.b.OnReceive(func(_ sim.Time, c RxCompletion) {
		seqs = append(seqs, c.Seq)
	})
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		if err := r.memA.Poke(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		d, err := r.a.Transmit(now, 0, 1, "b", now)
		if err != nil {
			t.Fatal(err)
		}
		now += d
	}
	if _, err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != n {
		t.Fatalf("delivered %d/%d", len(seqs), n)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("out of order at %d: %v", i, seqs[i-1:i+1])
		}
	}
}

func BenchmarkTransmit1500(b *testing.B) {
	e := sim.NewEngine(1)
	f := netsim.NewFabric("tor", e)
	m := mem.NewRegion("ddr", 0, 1<<20, mem.Timing{ReadLatency: 110, Bandwidth: 38.4}, nil)
	nic := New("a", Config{})
	nic.AttachHostMemory(m)
	nic.AttachFabric(f)
	sinkNIC := New("b", Config{})
	sinkNIC.AttachHostMemory(m)
	sinkNIC.AttachFabric(f)
	if err := f.Attach("a", nic.LineRate(), nic); err != nil {
		b.Fatal(err)
	}
	if err := f.Attach("b", sinkNIC.LineRate(), sinkNIC); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := nic.Transmit(sim.Time(i*2000), 0, 1500, "b", 0); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 0 {
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
