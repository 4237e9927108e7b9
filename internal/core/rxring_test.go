package core

import (
	"errors"
	"testing"

	"cxlpool/internal/cache"
	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

var errInjectedRead = errors.New("injected read failure")

// flakyMem fails, while on, every read that starts at one of addrs: the
// payload read of an RX buffer, and nothing else its host touches.
type flakyMem struct {
	mem.Memory
	on    bool
	addrs map[mem.Address]bool
}

func (f *flakyMem) ReadAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if f.on && f.addrs[a] {
		return 0, errInjectedRead
	}
	return f.Memory.ReadAt(now, a, buf)
}

// A payload read that fails must still hand the RX buffer back to the
// device, on the local fast path (deliverLocal) and through the owner
// (deliverRx). Otherwise every failed read shrinks the NIC's RX ring
// for good.
func TestVNICFailedRxReadRepostsBuffer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		owner string // host whose NIC serves host0's vNIC
	}{
		{"local", "host0"},
		{"remote", "host1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestPod(t, 3)
			h0, _ := p.Host("host0")
			owner, _ := p.Host(tc.owner)
			h2, _ := p.Host("host2")
			// host0 reads pool memory through flaky; its own NIC's DMA
			// and the agents' channel reads are unaffected.
			flaky := &flakyMem{Memory: h0.space, addrs: map[mem.Address]bool{}}
			h0.cache = cache.New(h0.name, flaky, 0)

			const rxBuffers = 8
			v := NewVirtualNIC(h0, "v0", VNICConfig{BufSize: 256, RxBuffers: rxBuffers})
			if _, err := v.Bind(owner, tc.owner+"-nic0"); err != nil {
				t.Fatal(err)
			}
			for _, a := range v.rxAddrs {
				flaky.addrs[a] = true
			}
			var rx int
			v.OnReceive(func(sim.Time, string, []byte) { rx++ })
			src := NewVirtualNIC(h2, "v2", VNICConfig{BufSize: 256})
			if _, err := src.Bind(h2, "host2-nic0"); err != nil {
				t.Fatal(err)
			}

			now := sim.Time(0)
			send := func() {
				t.Helper()
				d, err := src.Send(now, tc.owner+"-nic0", []byte("frame"))
				if err != nil {
					t.Fatal(err)
				}
				now += d + sim.Millisecond
				if _, err := p.Engine.RunUntil(now); err != nil {
					t.Fatal(err)
				}
			}
			phys := v.Phys()
			flaky.on = true
			send()
			if rx != 0 || v.compDrops != 1 {
				t.Fatalf("failed read: delivered %d, compDrops %d; want 0, 1", rx, v.compDrops)
			}
			if got := phys.RxRingLen(); got != rxBuffers {
				t.Fatalf("RX ring after a failed read = %d, want %d", got, rxBuffers)
			}
			flaky.on = false
			send()
			if rx != 1 {
				t.Fatalf("after repair: delivered %d, want 1", rx)
			}
			if got := phys.RxRingLen(); got != rxBuffers {
				t.Fatalf("RX ring after repair = %d, want %d", got, rxBuffers)
			}
			if _, _, txErr, _ := v.Stats(); txErr != 0 {
				t.Fatalf("txErrors = %d, want 0", txErr)
			}
		})
	}
}

// A vNIC bound to its own host's NIC needs only one RX buffer: the
// NIC hands it each frame inside FromWire, and deliverLocal reposts
// the buffer before FromWire returns, so between events the ring holds
// that one buffer again. The rack sinks rest on this. A burst of
// back-to-back frames at line rate must arrive without a drop, with the
// ring full after every event.
func TestLocalVNICOneRxBufferTakesBurst(t *testing.T) {
	const frames = 256
	p := newTestPod(t, 2)
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	sink := NewVirtualNIC(h0, "sink", VNICConfig{BufSize: 512, RxBuffers: 1})
	if _, err := sink.Bind(h0, "host0-nic0"); err != nil {
		t.Fatal(err)
	}
	var rx int
	sink.OnReceive(func(sim.Time, string, []byte) { rx++ })
	src := NewVirtualNIC(h1, "src", VNICConfig{BufSize: 512})
	if _, err := src.Bind(h1, "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	// The local TX path recycles its buffer at once, so the whole burst
	// is handed over at t=0 and the NIC serializes it onto the wire.
	payload := make([]byte, 400)
	for i := 0; i < frames; i++ {
		if _, err := src.Send(0, "host0-nic0", payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// The agents' poll loops reschedule themselves forever, so step
	// until a deadline well past the burst's last arrival.
	phys := sink.Phys()
	for events := 0; p.Engine.Now() < sim.Millisecond && p.Engine.Step(); events++ {
		if got := phys.RxRingLen(); got != 1 {
			t.Fatalf("after event %d (t=%d, %d delivered): ring holds %d buffers, want 1", events, p.Engine.Now(), rx, got)
		}
	}
	if _, rxPackets, _, _, drops := phys.Stats(); rxPackets != frames || drops != 0 {
		t.Fatalf("NIC received %d frames and dropped %d; want %d and 0", rxPackets, drops, frames)
	}
	if rx != frames {
		t.Fatalf("delivered %d/%d", rx, frames)
	}
}
