package shm

import (
	"fmt"

	"cxlpool/internal/cache"
	"cxlpool/internal/cxl"
	"cxlpool/internal/mem"
	"cxlpool/internal/metrics"
	"cxlpool/internal/sim"
)

// PingPongConfig parameterizes the Figure 4 experiment: two hosts
// connected to an MHD-based CXL pool, each via its own link, exchanging
// 64 B messages over a pair of ring channels.
type PingPongConfig struct {
	// Messages is the number of ping-pong rounds (each contributes two
	// one-way samples).
	Messages int
	// Switched routes both hosts through a CXL switch (E9 ablation).
	Switched bool
	// Mode is the sender publish strategy (E9 ablation; default ModeNT).
	Mode SendMode
	// Slots is the ring size (default 64).
	Slots int
	// SlotBytes is the slot size (default 64, the paper's choice; E9
	// ablates 128/256).
	SlotBytes int
	// Seed drives controller jitter.
	Seed int64
}

// pollOverhead is the CPU cost between consecutive polls of a spinning
// receiver (loop + branch).
const pollOverhead sim.Duration = 10

// PingPongResult carries the measured distributions.
type PingPongResult struct {
	// OneWay is the one-way message-passing latency distribution, the
	// quantity Figure 4 plots (median ≈ 600 ns on real hardware).
	OneWay *metrics.Recorder
	// RTT is the full round-trip distribution.
	RTT *metrics.Recorder
	// EmptyPollCost is the average cost of a poll that found nothing.
	EmptyPollCost float64
}

// PingPong runs the Figure 4 microbenchmark: "We measure its latency
// using a ping-pong test. The sender and receiver each connect to the
// CXL memory pool using a PCIe-5.0 ×16 link."
//
// Timing is event-ordered: a receiver's poll can only observe a message
// whose NT store completed before the poll was issued, so the one-way
// latency includes the sender's store, the receiver's polling phase
// misalignment, and the receiver's CXL read — the same three components
// that bound the real measurement to "slightly above the theoretical
// minimum of one CXL write plus one CXL read" (§4.1).
func PingPong(cfg PingPongConfig) (*PingPongResult, error) {
	if cfg.Messages <= 0 {
		cfg.Messages = 10000
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 64
	}
	if cfg.SlotBytes <= 0 {
		cfg.SlotBytes = SlotSize
	}
	rng := sim.NewRand(cfg.Seed)

	// One MHD, two host ports — the minimal pod of the paper's setup —
	// each host on a PCIe-5.0 ×16 link.
	needed := 2 * FootprintSlotSize(cfg.Slots, cfg.SlotBytes)
	dev := cxl.NewMHD("fig4", 0, alignPow2(needed), 2, rng)
	va, err := dev.Connect(cxl.X16Gen5)
	if err != nil {
		return nil, err
	}
	vb, err := dev.Connect(cxl.X16Gen5)
	if err != nil {
		return nil, err
	}
	var sw *cxl.Switch
	if cfg.Switched {
		sw = cxl.NewSwitch("fig4-sw")
	}
	cacheA, err := newHostCache("A", va, sw)
	if err != nil {
		return nil, err
	}
	cacheB, err := newHostCache("B", vb, sw)
	if err != nil {
		return nil, err
	}

	chAB, err := NewChannelSlotSize(0, cfg.Slots, cfg.SlotBytes)
	if err != nil {
		return nil, err
	}
	chBA, err := NewChannelSlotSize(
		mem.Address(FootprintSlotSize(cfg.Slots, cfg.SlotBytes)), cfg.Slots, cfg.SlotBytes)
	if err != nil {
		return nil, err
	}
	sendA := chAB.NewSender(cacheA)
	sendA.Mode = cfg.Mode
	recvB := chAB.NewReceiver(cacheB)
	sendB := chBA.NewSender(cacheB)
	sendB.Mode = cfg.Mode
	recvA := chBA.NewReceiver(cacheA)

	res := &PingPongResult{
		OneWay: metrics.NewRecorder(2 * cfg.Messages),
		RTT:    metrics.NewRecorder(cfg.Messages),
	}
	var emptySum float64
	var emptyN int

	now := sim.Time(0)
	payload := make([]byte, chAB.MaxPayload())
	copy(payload, "ping-pong-payload")
	// rxBuf is the receive-side scratch both receivers append into
	// (PollInto), keeping the measurement loop allocation-free.
	rxBuf := make([]byte, 0, chAB.MaxPayload())

	// oneLeg sends from s to r and returns the receive completion time.
	oneLeg := func(t0 sim.Time, s *Sender, r *Receiver) (sim.Time, error) {
		// Exercise the miss path once per leg: the receiver was already
		// spinning before the message was sent.
		if _, d, ok, err := r.PollInto(t0, rxBuf[:0]); err != nil {
			return 0, err
		} else if ok {
			return 0, fmt.Errorf("shm: poll saw a message before it was sent")
		} else {
			emptySum += float64(d)
			emptyN++
		}
		sd, err := s.Send(t0, payload)
		if err != nil {
			return 0, err
		}
		visible := t0 + sd
		// The receiver's spin loop has been issuing polls back-to-back;
		// its poll period is (poll cost + loop overhead). The first poll
		// issued at or after `visible` observes the message. The phase
		// offset within the period is uniform: draw it.
		period := sim.Duration(emptySum/float64(emptyN)) + pollOverhead
		phase := sim.Duration(rng.Int63n(int64(period)))
		pollAt := visible + phase
		payloadGot, pd, ok, err := r.PollInto(pollAt, rxBuf[:0])
		if err != nil {
			return 0, err
		}
		if !ok {
			// Broken coherence modes legitimately never deliver.
			return 0, errStale
		}
		if len(payloadGot) != len(payload) {
			return 0, fmt.Errorf("shm: payload length %d != %d", len(payloadGot), len(payload))
		}
		arrival := pollAt + pd
		res.OneWay.Record(float64(arrival - t0))
		return arrival, nil
	}

	for i := 0; i < cfg.Messages; i++ {
		t0 := now
		mid, err := oneLeg(t0, sendA, recvB)
		if err != nil {
			return nil, err
		}
		end, err := oneLeg(mid, sendB, recvA)
		if err != nil {
			return nil, err
		}
		res.RTT.Record(float64(end - t0))
		now = end + pollOverhead
	}
	if emptyN > 0 {
		res.EmptyPollCost = emptySum / float64(emptyN)
	}
	return res, nil
}

var errStale = fmt.Errorf("shm: message never became visible (broken coherence mode)")

// ErrStale reports whether err is the broken-coherence sentinel from
// PingPong, used by the E9 ablation to assert ModeWriteOnly fails.
func ErrStale(err error) bool { return err == errStale }

// newHostCache wires a cache over the (possibly switched) port view.
func newHostCache(host string, v *cxl.PortView, sw *cxl.Switch) (*cache.Cache, error) {
	if sw == nil {
		return cache.New(host, v, 0), nil
	}
	sv, err := sw.Via(v, cxl.X16Gen5)
	if err != nil {
		return nil, err
	}
	return cache.New(host, sv, 0), nil
}

func alignPow2(n int) int {
	p := 4096
	for p < n {
		p <<= 1
	}
	return p
}
