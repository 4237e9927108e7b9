package stack

import (
	"errors"
	"testing"

	"cxlpool/internal/cxl"
	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/sim"
)

// echoRig wires a client and echo server over one ToR.
type echoRig struct {
	engine *sim.Engine
	server *Server
	client *Client
	sPool  *BufferPool
}

func newEchoRig(t *testing.T, payload int, mode BufferMode) *echoRig {
	t.Helper()
	engine := sim.NewEngine(11)
	fabric := netsim.NewFabric("tor", engine)
	sNIC := nicsim.New("server", nicsim.Config{})
	cNIC := nicsim.New("client", nicsim.Config{})
	sNIC.AttachFabric(fabric)
	cNIC.AttachFabric(fabric)
	if err := fabric.Attach("server", sNIC.LineRate(), sNIC); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Attach("client", cNIC.LineRate(), cNIC); err != nil {
		t.Fatal(err)
	}
	size := 1 << 22
	var sPool *BufferPool
	if mode == BufferCXL {
		mhd := cxl.NewMHD("pool", 0, size, 2, sim.NewRand(5))
		dv, err := mhd.Connect(cxl.X8Gen5)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := mhd.Connect(cxl.X8Gen5)
		if err != nil {
			t.Fatal(err)
		}
		sPool = NewBufferPool("cxl", cv, dv, 0, size)
	} else {
		r := mem.NewRegion("sddr", 0, size, cxl.DDRTiming(), nil)
		sPool = NewBufferPool("ddr", r, r, 0, size)
	}
	cr := mem.NewRegion("cddr", 0, size, cxl.DDRTiming(), nil)
	cPool := NewBufferPool("cddr", cr, cr, 0, size)
	srv, err := NewServer(engine, sNIC, sPool, payload, 64)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(engine, cNIC, cPool, "server", payload, 64, sim.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	return &echoRig{engine: engine, server: srv, client: cl, sPool: sPool}
}

func TestEchoRoundTrip(t *testing.T) {
	for _, mode := range []BufferMode{BufferDDR, BufferCXL} {
		r := newEchoRig(t, 256, mode)
		r.client.Start(0, 100_000, 2*sim.Millisecond)
		if _, err := r.engine.Run(); err != nil {
			t.Fatal(err)
		}
		if r.client.Sent() == 0 {
			t.Fatalf("%v: nothing sent", mode)
		}
		if r.client.Responses() != r.client.Sent() {
			t.Fatalf("%v: sent %d, responses %d", mode, r.client.Sent(), r.client.Responses())
		}
		if r.server.Served() != r.client.Sent() {
			t.Fatalf("%v: served %d != sent %d", mode, r.server.Served(), r.client.Sent())
		}
		if r.client.RTT.Count() == 0 || r.client.RTT.Percentile(50) <= 0 {
			t.Fatalf("%v: no RTT samples", mode)
		}
	}
}

func TestServerBuffersDoNotLeak(t *testing.T) {
	r := newEchoRig(t, 512, BufferCXL)
	base := r.sPool.alloc.AllocCount()
	r.client.Start(0, 200_000, 2*sim.Millisecond)
	if _, err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	// After draining, only the permanently posted RX ring buffers remain
	// allocated.
	if got := r.sPool.alloc.AllocCount(); got != base {
		t.Fatalf("buffer leak: %d allocations live, want %d", got, base)
	}
}

func TestRTTIncludesAllPathComponents(t *testing.T) {
	r := newEchoRig(t, 75, BufferDDR)
	r.client.Start(0, 10_000, sim.Millisecond)
	if _, err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	p50 := r.client.RTT.Percentile(50)
	// Floor: 4 stack traversals + 2 wire RTT legs; anything below means
	// a path component was skipped.
	floor := float64(4*StackTraversal + 4*netsim.DefaultPropagation + 2*netsim.DefaultForwardLatency)
	if p50 < floor {
		t.Fatalf("RTT p50 %.0fns below physical floor %.0fns", p50, floor)
	}
	if p50 > 40_000 {
		t.Fatalf("unloaded RTT p50 %.0fns implausibly high", p50)
	}
}

func TestInvalidConfigs(t *testing.T) {
	engine := sim.NewEngine(1)
	nic := nicsim.New("x", nicsim.Config{})
	reg := mem.NewRegion("m", 0, 1<<20, mem.Timing{}, nil)
	pool := NewBufferPool("p", reg, reg, 0, 1<<20)
	if _, err := NewServer(engine, nic, pool, 0, 8); err == nil {
		t.Fatal("zero bufSize accepted")
	}
	if _, err := NewServer(engine, nic, pool, 64, 0); err == nil {
		t.Fatal("zero ring accepted")
	}
	if _, err := NewClient(engine, nic, pool, "d", 0, 8, sim.NewRand(1)); err == nil {
		t.Fatal("zero payload accepted")
	}
	if _, err := NewClient(engine, nic, pool, "d", nicsim.MTU+1, 8, sim.NewRand(1)); err == nil {
		t.Fatal("over-MTU payload accepted")
	}
	if _, err := RunUDPBench(UDPBenchConfig{Payload: 0}); err == nil {
		t.Fatal("bench with zero payload accepted")
	}
	if _, err := RunUDPBench(UDPBenchConfig{Payload: 64, OfferedMOPS: 1, Mode: BufferMode(99)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// Figure 3 shape: CXL and DDR latency curves nearly overlap at moderate
// load for every payload size the paper plots.
func TestFigure3CXLWithinFivePercentAtModerateLoad(t *testing.T) {
	cases := []struct {
		payload int
		load    float64
	}{
		{75, 2.0},
		{1500, 1.5},
		{9000, 0.6},
	}
	for _, c := range cases {
		ddr, err := RunUDPBench(UDPBenchConfig{Payload: c.payload, OfferedMOPS: c.load,
			Duration: 5 * sim.Millisecond, Mode: BufferDDR, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cxlRes, err := RunUDPBench(UDPBenchConfig{Payload: c.payload, OfferedMOPS: c.load,
			Duration: 5 * sim.Millisecond, Mode: BufferCXL, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		delta := (cxlRes.P50us - ddr.P50us) / ddr.P50us
		if delta < 0 {
			delta = -delta
		}
		// Paper §1: "latency and bandwidth overheads are within 5%"; we
		// allow 10% headroom for the simulator's discrete components.
		if delta > 0.10 {
			t.Errorf("%dB@%.1fM: CXL p50 %.1fus vs DDR %.1fus (%.1f%%)",
				c.payload, c.load, cxlRes.P50us, ddr.P50us, delta*100)
		}
		// Same achieved throughput: CXL buffers must not reduce
		// saturation (§4.1).
		tDelta := (ddr.AchievedMOPS - cxlRes.AchievedMOPS) / ddr.AchievedMOPS
		if tDelta > 0.02 {
			t.Errorf("%dB@%.1fM: CXL achieved %.2fM vs DDR %.2fM",
				c.payload, c.load, cxlRes.AchievedMOPS, ddr.AchievedMOPS)
		}
	}
}

func TestFigure3SaturationPoints(t *testing.T) {
	// 75B saturates ~4 MOPS (paper Fig 3a x-axis).
	r, err := RunUDPBench(UDPBenchConfig{Payload: 75, OfferedMOPS: 4.0,
		Duration: 5 * sim.Millisecond, Mode: BufferDDR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.AchievedMOPS < 3.7 {
		t.Fatalf("75B achieved %.2fM at 4.0 offered, want >=3.7", r.AchievedMOPS)
	}
	// Past saturation the system must cap, not track offered load.
	over, err := RunUDPBench(UDPBenchConfig{Payload: 75, OfferedMOPS: 6.0,
		Duration: 5 * sim.Millisecond, Mode: BufferDDR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if over.AchievedMOPS > 4.8 {
		t.Fatalf("75B achieved %.2fM at 6.0 offered; single worker cannot exceed ~4.3", over.AchievedMOPS)
	}
	// 9000B is line/copy limited well below 2 MOPS.
	jumbo, err := RunUDPBench(UDPBenchConfig{Payload: 9000, OfferedMOPS: 2.0,
		Duration: 5 * sim.Millisecond, Mode: BufferDDR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jumbo.AchievedMOPS > 1.6 {
		t.Fatalf("9000B achieved %.2fM, want <=1.6", jumbo.AchievedMOPS)
	}
}

func TestFigure3TailGrowsNearSaturation(t *testing.T) {
	low, err := RunUDPBench(UDPBenchConfig{Payload: 1500, OfferedMOPS: 0.5,
		Duration: 5 * sim.Millisecond, Mode: BufferCXL, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunUDPBench(UDPBenchConfig{Payload: 1500, OfferedMOPS: 3.0,
		Duration: 5 * sim.Millisecond, Mode: BufferCXL, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if high.P99us < 1.5*low.P99us {
		t.Fatalf("p99 hockey stick missing: %.1fus at 3.0M vs %.1fus at 0.5M",
			high.P99us, low.P99us)
	}
	// p50 stays far flatter than p99 (the paper's curves fan out).
	if high.P50us > high.P99us {
		t.Fatal("p50 exceeded p99")
	}
}

func TestFigure3Deterministic(t *testing.T) {
	a, err := RunUDPBench(UDPBenchConfig{Payload: 75, OfferedMOPS: 1.0,
		Duration: 2 * sim.Millisecond, Mode: BufferCXL, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunUDPBench(UDPBenchConfig{Payload: 75, OfferedMOPS: 1.0,
		Duration: 2 * sim.Millisecond, Mode: BufferCXL, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.P50us != b.P50us || a.Responses != b.Responses {
		t.Fatal("bench not deterministic for equal seeds")
	}
}

func TestFigure3SweepSeries(t *testing.T) {
	ddr, cxlSeries, err := Figure3Sweep(75, []float64{0.5, 2.0}, 2*sim.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ddr) != 2 || len(cxlSeries) != 2 {
		t.Fatalf("series lengths %d/%d", len(ddr), len(cxlSeries))
	}
	if ddr[0].Mode != BufferDDR || cxlSeries[0].Mode != BufferCXL {
		t.Fatal("series modes wrong")
	}
	if ddr[1].AchievedMOPS <= ddr[0].AchievedMOPS {
		t.Fatal("achieved throughput not increasing with offered load below saturation")
	}
}

func TestDefaultLoadsCoverSaturation(t *testing.T) {
	if max75 := DefaultLoads(75)[len(DefaultLoads(75))-1]; max75 < 4.0 {
		t.Fatalf("75B sweep tops at %.1f, paper axis reaches 4", max75)
	}
	if max15 := DefaultLoads(1500)[len(DefaultLoads(1500))-1]; max15 < 3.0 {
		t.Fatalf("1500B sweep tops at %.1f, paper axis reaches 3", max15)
	}
	if max9k := DefaultLoads(9000)[len(DefaultLoads(9000))-1]; max9k < 1.0 {
		t.Fatalf("9000B sweep tops at %.1f, paper axis reaches 1", max9k)
	}
}

func BenchmarkUDPEchoPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunUDPBench(UDPBenchConfig{Payload: 1500, OfferedMOPS: 1.0,
			Duration: sim.Millisecond, Mode: BufferCXL, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUDPEchoAllocationBudget pins the echo path's steady-state
// allocation cost: each extra response may cost at most a quarter of an
// allocation, in both buffer modes, for small and jumbo payloads.
// Set-up (rings, regions, recorders) is the same at both loads, so it
// cancels in the difference.
func TestUDPEchoAllocationBudget(t *testing.T) {
	for _, mode := range []BufferMode{BufferDDR, BufferCXL} {
		for _, payload := range []int{75, 9000} {
			run := func(mops float64) (allocs float64, responses uint64) {
				cfg := UDPBenchConfig{Payload: payload, OfferedMOPS: mops,
					Duration: 2 * sim.Millisecond, Mode: mode, Seed: 42}
				allocs = testing.AllocsPerRun(1, func() {
					r, err := RunUDPBench(cfg)
					if err != nil {
						t.Fatal(err)
					}
					responses = r.Responses
				})
				return allocs, responses
			}
			lowAllocs, lowN := run(0.25)
			highAllocs, highN := run(1.0)
			if highN <= lowN {
				t.Fatalf("%v %dB: %d responses at 1.0 MOPS, %d at 0.25", mode, payload, highN, lowN)
			}
			perResponse := (highAllocs - lowAllocs) / float64(highN-lowN)
			t.Logf("%v %dB: %.0f -> %.0f allocs for %d -> %d responses (%.3f per extra response)",
				mode, payload, lowAllocs, highAllocs, lowN, highN, perResponse)
			if perResponse > 0.25 {
				t.Errorf("%v %dB: %.3f allocations per extra response, budget 0.25", mode, payload, perResponse)
			}
		}
	}
}

// failingMemory is a CPU view whose reads or writes fail.
type failingMemory struct {
	mem.Memory
	failRead, failWrite bool
}

var errInjected = errors.New("injected CPU access failure")

func (m *failingMemory) ReadAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if m.failRead {
		return 0, errInjected
	}
	return m.Memory.ReadAt(now, a, buf)
}

func (m *failingMemory) WriteAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if m.failWrite {
		return 0, errInjected
	}
	return m.Memory.WriteAt(now, a, buf)
}

// A request the worker cannot read or answer is dropped and counted,
// and gives back everything it held: the RX buffer goes back on the
// ring and the TX buffer back to the pool.
func TestServerCPUAccessFailureRecyclesBuffers(t *testing.T) {
	for _, failRead := range []bool{true, false} {
		r := newEchoRig(t, 256, BufferCXL)
		r.sPool.cpu = &failingMemory{Memory: r.sPool.cpu, failRead: failRead, failWrite: !failRead}
		ring := r.server.nic.RxRingLen()
		base := r.sPool.alloc.AllocCount()
		// More requests than the ring holds: a leaked RX buffer would
		// run the ring dry.
		r.client.Start(0, 500_000, sim.Millisecond)
		if _, err := r.engine.Run(); err != nil {
			t.Fatal(err)
		}
		sent := r.client.Sent()
		if sent <= uint64(ring) {
			t.Fatalf("failRead=%v: sent %d requests, want more than the ring's %d", failRead, sent, ring)
		}
		if r.server.rxErrors != sent || r.server.Served() != 0 || r.client.Responses() != 0 {
			t.Fatalf("failRead=%v: rxErrors=%d served=%d responses=%d, want %d/0/0",
				failRead, r.server.rxErrors, r.server.Served(), r.client.Responses(), sent)
		}
		if got := r.server.nic.RxRingLen(); got != ring {
			t.Fatalf("failRead=%v: RX ring holds %d buffers, want %d", failRead, got, ring)
		}
		if got := r.sPool.alloc.AllocCount(); got != base {
			t.Fatalf("failRead=%v: %d pool allocations live, want %d", failRead, got, base)
		}
	}
}

// Each Start call is its own stream with its own rate and end: two
// overlapping streams send what the two would send apart.
func TestStartStreamsAreIndependent(t *testing.T) {
	sent := func(durations ...sim.Duration) uint64 {
		r := newEchoRig(t, 64, BufferDDR)
		for _, d := range durations {
			r.client.Start(0, 200_000, d)
		}
		if _, err := r.engine.Run(); err != nil {
			t.Fatal(err)
		}
		return r.client.Sent()
	}
	short, long := sent(sim.Millisecond), sent(3*sim.Millisecond)
	both := sent(sim.Millisecond, 3*sim.Millisecond)
	if want := float64(short + long); float64(both) < 0.85*want || float64(both) > 1.15*want {
		t.Fatalf("two streams sent %d, want about %d (%d + %d)", both, short+long, short, long)
	}
}
