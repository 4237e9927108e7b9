package shm

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"cxlpool/internal/cache"
	"cxlpool/internal/cxl"
	"cxlpool/internal/sim"
)

// twoHosts builds a 2-port MHD pool with one cache per host.
func twoHosts(t testing.TB) (*cache.Cache, *cache.Cache) {
	t.Helper()
	dev := cxl.NewMHD("pool", 0, 1<<20, 2, sim.NewRand(1))
	va, err := dev.Connect(cxl.X16Gen5)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := dev.Connect(cxl.X16Gen5)
	if err != nil {
		t.Fatal(err)
	}
	return cache.New("A", va, 0), cache.New("B", vb, 0)
}

func TestChannelSendReceive(t *testing.T) {
	a, b := twoHosts(t)
	ch, err := NewChannel(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	tx := ch.NewSender(a)
	rx := ch.NewReceiver(b)

	d, err := tx.Send(0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("send latency must be positive")
	}
	got, pd, ok, err := rx.Poll(d)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("message not visible after send completion")
	}
	if pd <= 0 {
		t.Fatal("poll latency must be positive")
	}
	if string(got) != "hello" {
		t.Fatalf("received %q", got)
	}
}

func TestChannelOrderingAndCount(t *testing.T) {
	a, b := twoHosts(t)
	ch, _ := NewChannel(0, 16)
	tx := ch.NewSender(a)
	rx := ch.NewReceiver(b)
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		d, err := tx.Send(now, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		now += d
	}
	for i := 0; i < 10; i++ {
		got, d, ok, err := rx.Poll(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("message %d missing", i)
		}
		if got[0] != byte(i) {
			t.Fatalf("message %d out of order: %d", i, got[0])
		}
		now += d
	}
	if tx.Sent() != 10 || rx.Received() != 10 {
		t.Fatalf("sent=%d received=%d", tx.Sent(), rx.Received())
	}
	// Ring must now be empty.
	_, _, ok, err := rx.Poll(now)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("poll on drained ring returned a message")
	}
	if rx.EmptyPolls() == 0 {
		t.Fatal("empty poll not counted")
	}
}

func TestChannelWrapAround(t *testing.T) {
	a, b := twoHosts(t)
	const slots = 4
	ch, _ := NewChannel(0, slots)
	tx := ch.NewSender(a)
	rx := ch.NewReceiver(b)
	now := sim.Time(0)
	// Send/receive 5x the ring size to force many wraps.
	for i := 0; i < 5*slots; i++ {
		d, err := tx.Send(now, []byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		now += d
		got, d2, ok, err := rx.Poll(now)
		if err != nil || !ok {
			t.Fatalf("poll %d: ok=%v err=%v", i, ok, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("wrap corrupted message %d", i)
		}
		now += d2
	}
}

func TestChannelBackpressure(t *testing.T) {
	a, b := twoHosts(t)
	const slots = 4
	ch, _ := NewChannel(0, slots)
	tx := ch.NewSender(a)
	rx := ch.NewReceiver(b)
	now := sim.Time(0)
	// Fill the ring without consuming.
	for i := 0; i < slots; i++ {
		d, err := tx.Send(now, []byte{byte(i)})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		now += d
	}
	if _, err := tx.Send(now, []byte{99}); !errors.Is(err, ErrChannelFull) {
		t.Fatalf("overfull send err = %v", err)
	}
	if tx.FullEvents() != 1 {
		t.Fatalf("full events = %d", tx.FullEvents())
	}
	// Drain everything; the receiver publishes its cursor each slots/4
	// messages, so after draining all 4 the sender can proceed.
	for i := 0; i < slots; i++ {
		_, d, ok, err := rx.Poll(now)
		if err != nil || !ok {
			t.Fatalf("drain %d failed", i)
		}
		now += d
	}
	if _, err := tx.Send(now, []byte{100}); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
}

func TestChannelPayloadTooLarge(t *testing.T) {
	a, _ := twoHosts(t)
	ch, _ := NewChannel(0, 8)
	tx := ch.NewSender(a)
	if _, err := tx.Send(0, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tx.Send(0, make([]byte, MaxPayload)); err != nil {
		t.Fatalf("max payload rejected: %v", err)
	}
}

func TestChannelValidation(t *testing.T) {
	if _, err := NewChannel(1, 8); err == nil {
		t.Fatal("unaligned base accepted")
	}
	if _, err := NewChannel(0, 1); err == nil {
		t.Fatal("1-slot ring accepted")
	}
}

func TestWriteOnlyModeIsInvisible(t *testing.T) {
	a, b := twoHosts(t)
	ch, _ := NewChannel(0, 8)
	tx := ch.NewSender(a)
	tx.Mode = ModeWriteOnly
	rx := ch.NewReceiver(b)
	d, err := tx.Send(0, []byte("trapped in cache"))
	if err != nil {
		t.Fatal(err)
	}
	// Even long after the send, the message is in A's cache only.
	_, _, ok, err := rx.Poll(d + 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("write-only send became visible on a non-coherent pool")
	}
}

func TestWriteFlushModeWorks(t *testing.T) {
	a, b := twoHosts(t)
	ch, _ := NewChannel(0, 8)
	tx := ch.NewSender(a)
	tx.Mode = ModeWriteFlush
	rx := ch.NewReceiver(b)
	d, err := tx.Send(0, []byte("flushed"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, ok, err := rx.Poll(d)
	if err != nil || !ok {
		t.Fatalf("flushed message not visible: ok=%v err=%v", ok, err)
	}
	if string(got) != "flushed" {
		t.Fatalf("got %q", got)
	}
}

// Property: any sequence of payloads is delivered exactly once, in
// order, with no corruption, across any ring size.
func TestChannelDeliveryProperty(t *testing.T) {
	if err := quick.Check(func(msgs [][]byte, slotsSel uint8) bool {
		slots := 2 + int(slotsSel%30)
		a, b := twoHosts(t)
		ch, err := NewChannel(0, slots)
		if err != nil {
			return false
		}
		tx := ch.NewSender(a)
		rx := ch.NewReceiver(b)
		now := sim.Time(0)
		for i, m := range msgs {
			if len(m) > MaxPayload {
				m = m[:MaxPayload]
			}
			d, err := tx.Send(now, m)
			if err != nil {
				return false
			}
			now += d
			got, d2, ok, err := rx.Poll(now)
			if err != nil || !ok {
				return false
			}
			now += d2
			if len(got) != len(m) {
				return false
			}
			for j := range m {
				if got[j] != m[j] {
					return false
				}
			}
			_ = i
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSeqRecordPublishRead(t *testing.T) {
	a, b := twoHosts(t)
	rec, err := NewSeqRecord(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("device=nic0 load=73% healthy=yes")
	d, err := rec.Publish(0, a, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rec.Read(d, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:len(payload)]) != string(payload) {
		t.Fatalf("read %q", got[:len(payload)])
	}
}

func TestSeqRecordRepublish(t *testing.T) {
	a, b := twoHosts(t)
	rec, _ := NewSeqRecord(128)
	now := sim.Time(0)
	for i := 0; i < 5; i++ {
		msg := []byte(fmt.Sprintf("version-%d", i))
		d, err := rec.Publish(now, a, msg)
		if err != nil {
			t.Fatal(err)
		}
		now += d
		got, rd, err := rec.Read(now, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		now += rd
		if string(got[:len(msg)]) != string(msg) {
			t.Fatalf("iteration %d read %q", i, got[:len(msg)])
		}
	}
}

func TestSeqRecordTooLarge(t *testing.T) {
	a, _ := twoHosts(t)
	rec, _ := NewSeqRecord(0)
	if _, err := rec.Publish(0, a, make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestPingPongMatchesFigure4(t *testing.T) {
	res, err := PingPong(PingPongConfig{Messages: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := res.OneWay.Summarize()
	// Figure 4: median ~600 ns, sub-microsecond distribution.
	if s.P50 < 400 || s.P50 > 800 {
		t.Fatalf("one-way median %.0fns outside [400,800] (paper: ~600)", s.P50)
	}
	if s.P99 >= 1500 {
		t.Fatalf("one-way p99 %.0fns not sub-1.5us", s.P99)
	}
	if s.Min < 300 {
		t.Fatalf("one-way min %.0fns below the physical floor (one CXL write + one CXL read)", s.Min)
	}
	if res.RTT.Percentile(50) < 2*s.P50*0.8 {
		t.Fatalf("RTT median %.0f inconsistent with one-way %.0f", res.RTT.Percentile(50), s.P50)
	}
	if res.OneWay.Count() != 10000 {
		t.Fatalf("sample count = %d", res.OneWay.Count())
	}
}

func TestPingPongSwitchedIsSlower(t *testing.T) {
	direct, err := PingPong(PingPongConfig{Messages: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	switched, err := PingPong(PingPongConfig{Messages: 2000, Seed: 1, Switched: true})
	if err != nil {
		t.Fatal(err)
	}
	dm, sm := direct.OneWay.Percentile(50), switched.OneWay.Percentile(50)
	if sm <= dm+200 {
		t.Fatalf("switched median %.0f not >200ns above direct %.0f", sm, dm)
	}
}

func TestPingPongWriteOnlyFails(t *testing.T) {
	_, err := PingPong(PingPongConfig{Messages: 10, Seed: 1, Mode: ModeWriteOnly})
	if !ErrStale(err) {
		t.Fatalf("broken coherence mode err = %v, want stale sentinel", err)
	}
}

func TestPingPongDeterministic(t *testing.T) {
	r1, err := PingPong(PingPongConfig{Messages: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := PingPong(PingPongConfig{Messages: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.OneWay.Percentile(50) != r2.OneWay.Percentile(50) ||
		r1.OneWay.Percentile(99) != r2.OneWay.Percentile(99) {
		t.Fatal("ping-pong not deterministic for equal seeds")
	}
}

func BenchmarkChannelSendRecv(b *testing.B) {
	a, bb := twoHosts(b)
	ch, _ := NewChannel(0, 64)
	tx := ch.NewSender(a)
	rx := ch.NewReceiver(bb)
	now := sim.Time(0)
	payload := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := tx.Send(now, payload)
		if err != nil {
			b.Fatal(err)
		}
		now += d
		_, d2, ok, err := rx.Poll(now)
		if err != nil || !ok {
			b.Fatal("recv failed")
		}
		now += d2
	}
}

func TestChannelCustomSlotSize(t *testing.T) {
	a, b := twoHosts(t)
	ch, err := NewChannelSlotSize(0, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if ch.MaxPayload() != 256-8 {
		t.Fatalf("max payload = %d", ch.MaxPayload())
	}
	tx := ch.NewSender(a)
	rx := ch.NewReceiver(b)
	big := make([]byte, 200)
	for i := range big {
		big[i] = byte(i)
	}
	d, err := tx.Send(0, big)
	if err != nil {
		t.Fatal(err)
	}
	got, _, ok, err := rx.Poll(d)
	if err != nil || !ok {
		t.Fatalf("poll: ok=%v err=%v", ok, err)
	}
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
	// Payload beyond the larger slot still rejected.
	if _, err := tx.Send(d, make([]byte, 249)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestChannelSlotSizeValidation(t *testing.T) {
	if _, err := NewChannelSlotSize(0, 8, 32); err == nil {
		t.Fatal("sub-cacheline slot accepted")
	}
	if _, err := NewChannelSlotSize(0, 8, 100); err == nil {
		t.Fatal("non-multiple slot accepted")
	}
}

func TestPingPongSlotSizeAblation(t *testing.T) {
	small, err := PingPong(PingPongConfig{Messages: 2000, Seed: 4, SlotBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	big, err := PingPong(PingPongConfig{Messages: 2000, Seed: 4, SlotBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Bigger slots cost more per message: the paper's 64B choice wins.
	if big.OneWay.Percentile(50) <= small.OneWay.Percentile(50) {
		t.Fatalf("256B slots (%.0fns) not slower than 64B (%.0fns)",
			big.OneWay.Percentile(50), small.OneWay.Percentile(50))
	}
}
