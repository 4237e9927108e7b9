package shm

import (
	"bytes"
	"errors"
	"testing"

	"cxlpool/internal/cache"
	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// faultyMem wraps a Memory and fails writes to one address once armed.
// It stands in for a flaky CXL link so the consumer-cursor NTStore can
// be made to fail at a precise point.
type faultyMem struct {
	mem.Memory
	failAddr mem.Address
	armed    bool
	failures int
}

var errInjected = errors.New("injected write fault")

func (f *faultyMem) WriteAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if f.armed && a == f.failAddr {
		f.failures++
		return 0, errInjected
	}
	return f.Memory.WriteAt(now, a, buf)
}

// TestPollPublishFailureKeepsMessage is the regression test for the
// consumed-message-lost bug: when the periodic consumer-cursor publish
// fails, the receiver has already committed the message (r.next and
// r.received advanced), so Poll must return the payload alongside the
// error rather than dropping it.
func TestPollPublishFailureKeepsMessage(t *testing.T) {
	va, vb := twoViews(t)
	a := cache.New("A", va, 0)
	ch, err := NewChannel(0, 8) // publishEvery = 8/4 = 2
	if err != nil {
		t.Fatal(err)
	}
	fm := &faultyMem{Memory: vb, failAddr: ch.consumerAddr()}
	rxCache := cache.New("B-faulty", fm, 0)
	tx := ch.NewSender(a)
	rx := ch.NewReceiver(rxCache)

	now := sim.Time(0)
	for i := 0; i < 2; i++ {
		d, err := tx.Send(now, []byte{byte(0x10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		now += d
	}
	// First message: no publish (received=1), must succeed cleanly.
	got, d, ok, err := rx.Poll(now)
	if err != nil || !ok || got[0] != 0x10 {
		t.Fatalf("first poll = (%v, %v, %v, %v)", got, d, ok, err)
	}
	// Second message triggers the cursor publish; arm the fault.
	fm.armed = true
	got, _, ok, err = rx.Poll(now)
	if !ok {
		t.Fatalf("consumed message dropped on publish failure (err=%v)", err)
	}
	if err == nil {
		t.Fatal("publish failure must surface as an error")
	}
	if len(got) != 1 || got[0] != 0x11 {
		t.Fatalf("payload lost on publish failure: %v", got)
	}
	if fm.failures != 1 {
		t.Fatalf("fault injected %d times, want 1", fm.failures)
	}
	// The receiver remains usable once the fault clears.
	fm.armed = false
	if d, err := tx.Send(now, []byte{0x12}); err != nil {
		t.Fatal(err)
	} else {
		now += d
	}
	got, _, ok, err = rx.Poll(now)
	if err != nil || !ok || got[0] != 0x12 {
		t.Fatalf("post-fault poll = (%v, %v, %v)", got, ok, err)
	}
}

// TestPollIntoMatchesPoll is the property test pinning the Into-style
// API to the allocating one: over randomized message sequences, Poll
// and PollInto must produce identical payload bytes and identical
// sim.Duration costs, in both publish modes. Two identical channel
// worlds are driven in lockstep, one polled with each API.
func TestPollIntoMatchesPoll(t *testing.T) {
	for _, mode := range []SendMode{ModeNT, ModeWriteFlush} {
		t.Run(mode.String(), func(t *testing.T) {
			a1, b1 := twoHosts(t)
			a2, b2 := twoHosts(t)
			ch1, _ := NewChannel(0, 16)
			ch2, _ := NewChannel(0, 16)
			tx1, rx1 := ch1.NewSender(a1), ch1.NewReceiver(b1)
			tx2, rx2 := ch2.NewSender(a2), ch2.NewReceiver(b2)
			tx1.Mode, tx2.Mode = mode, mode

			rng := sim.NewRand(7)
			scratch := make([]byte, 0, ch2.MaxPayload())
			payload := make([]byte, ch1.MaxPayload())
			now := sim.Time(0)
			for i := 0; i < 500; i++ {
				n := 1 + int(rng.Int63n(int64(ch1.MaxPayload())))
				for j := 0; j < n; j++ {
					payload[j] = byte(rng.Int63n(256))
				}
				// Occasionally interleave an empty poll (miss path) before
				// the message exists.
				if rng.Int63n(4) == 0 {
					_, m1, ok1, _ := rx1.Poll(now)
					_, m2, ok2, _ := rx2.PollInto(now, scratch[:0])
					if m1 != m2 || ok1 || ok2 {
						t.Fatalf("msg %d: miss poll diverged (%v,%v vs %v,%v)", i, m1, ok1, m2, ok2)
					}
				}
				d1, err1 := tx1.Send(now, payload[:n])
				d2, err2 := tx2.Send(now, payload[:n])
				if d1 != d2 || (err1 == nil) != (err2 == nil) {
					t.Fatalf("msg %d: send diverged: (%v,%v) vs (%v,%v)", i, d1, err1, d2, err2)
				}
				if err1 != nil {
					t.Fatalf("msg %d: send failed: %v", i, err1)
				}
				now += d1
				p1, c1, ok1, err1 := rx1.Poll(now)
				p2, c2, ok2, err2 := rx2.PollInto(now, scratch[:0])
				if !ok1 || !ok2 || err1 != nil || err2 != nil {
					t.Fatalf("msg %d: poll = (%v,%v) (%v,%v)", i, ok1, err1, ok2, err2)
				}
				if c1 != c2 {
					t.Fatalf("msg %d: poll cost diverged: %v vs %v", i, c1, c2)
				}
				if !bytes.Equal(p1, p2) {
					t.Fatalf("msg %d: payload diverged: %x vs %x", i, p1, p2)
				}
				now += c1
			}
		})
	}
}

// TestSendPollIntoZeroAlloc pins the zero-allocation property of the
// steady-state channel data plane so it cannot silently rot.
func TestSendPollIntoZeroAlloc(t *testing.T) {
	a, b := twoHosts(t)
	ch, _ := NewChannel(0, 64)
	tx := ch.NewSender(a)
	rx := ch.NewReceiver(b)
	payload := []byte("zero-alloc-data-plane")
	scratch := make([]byte, 0, ch.MaxPayload())
	now := sim.Time(0)
	// Warm the scratch slots.
	if _, err := tx.Send(now, payload); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := rx.PollInto(now+sim.Microsecond, scratch[:0]); !ok || err != nil {
		t.Fatalf("warmup poll: ok=%v err=%v", ok, err)
	}
	now += sim.Millisecond
	allocs := testing.AllocsPerRun(500, func() {
		d, err := tx.Send(now, payload)
		if err != nil {
			t.Fatal(err)
		}
		now += d
		p, pd, ok, err := rx.PollInto(now, scratch[:0])
		if err != nil || !ok || len(p) != len(payload) {
			t.Fatalf("poll: ok=%v err=%v", ok, err)
		}
		now += pd
	})
	if allocs > 2 {
		t.Fatalf("steady-state Send+PollInto allocates %.1f/op, want <= 2", allocs)
	}
}
