package stack

import (
	"fmt"
	"strconv"

	"cxlpool/internal/cxl"
	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/params"
	"cxlpool/internal/runner"
	"cxlpool/internal/sim"
)

// BufferMode selects where the server's TX/RX buffers live.
type BufferMode int

const (
	// BufferDDR places server buffers in local DDR5 (the paper's
	// unmodified-Junction baseline, solid lines in Figure 3).
	BufferDDR BufferMode = iota
	// BufferCXL places server buffers in the CXL memory pool (dotted
	// lines): the NIC DMAs through one ×8 CXL link (socket0) and the
	// stack accesses through another ×8 link (socket1).
	BufferCXL
)

// String names the mode.
func (m BufferMode) String() string {
	if m == BufferCXL {
		return "CXL"
	}
	return "DDR"
}

// UDPBenchConfig parameterizes one point of the Figure 3 sweep.
type UDPBenchConfig struct {
	// Payload is the UDP payload size (75, 1500, or 9000 in the paper).
	Payload int
	// OfferedMOPS is the client's open-loop request rate in millions of
	// operations per second.
	OfferedMOPS float64
	// Duration is the measurement window of simulated time.
	Duration sim.Duration
	// Mode places the server's buffers.
	Mode BufferMode
	// Seed drives arrivals and jitter.
	Seed int64
}

// UDPBenchResult is one point on a Figure 3 curve.
type UDPBenchResult struct {
	Mode          BufferMode
	Payload       int
	OfferedMOPS   float64
	AchievedMOPS  float64
	P50us         float64
	P90us         float64
	P99us         float64
	Sent          uint64
	Responses     uint64
	ServerRxDrops uint64
}

// String renders one row.
func (r UDPBenchResult) String() string {
	return fmt.Sprintf("%s %4dB offered=%.2fM achieved=%.2fM p50=%.1fus p90=%.1fus p99=%.1fus",
		r.Mode, r.Payload, r.OfferedMOPS, r.AchievedMOPS, r.P50us, r.P90us, r.P99us)
}

// ringDepth is the RX ring size of both the server and the client.
const ringDepth = 512

// poolSize returns a buffer-pool size comfortably above ring+in-flight
// needs.
func poolSize(payload int) int {
	per := int(mem.AlignUp(mem.Address(payload)))
	n := (ringDepth*4 + 4096) * per
	const minSize = 1 << 22
	if n < minSize {
		return minSize
	}
	return n
}

// RunUDPBench runs the Figure 3 UDP echo microbenchmark at one offered
// load and returns the measured point.
func RunUDPBench(cfg UDPBenchConfig) (*UDPBenchResult, error) {
	if cfg.Payload <= 0 {
		return nil, fmt.Errorf("stack: payload must be positive")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 20 * sim.Millisecond
	}
	engine := sim.NewEngine(cfg.Seed)
	fabric := netsim.NewFabric("tor", engine)

	serverNIC := nicsim.New("server", nicsim.Config{})
	clientNIC := nicsim.New("client", nicsim.Config{})
	serverNIC.AttachFabric(fabric)
	clientNIC.AttachFabric(fabric)
	if err := fabric.Attach("server", serverNIC.LineRate(), serverNIC); err != nil {
		return nil, err
	}
	if err := fabric.Attach("client", clientNIC.LineRate(), clientNIC); err != nil {
		return nil, err
	}

	size := poolSize(cfg.Payload)

	// Host DDR is interleaved across multiple channels (4 here); buffer
	// traffic never saturates a single DIMM channel on a real server.
	ddrTiming := cxl.DDRTiming()
	ddrTiming.Bandwidth *= 4

	// Server buffer pool per mode.
	var serverPool *BufferPool
	switch cfg.Mode {
	case BufferDDR:
		ddr := mem.NewRegion("server-ddr", 0, size, ddrTiming, sim.NewRand(cfg.Seed+1))
		serverPool = NewBufferPool("ddr", ddr, ddr, 0, size)
	case BufferCXL:
		// One MHD, two ×8 ports: port0 for the NIC's DMA (socket0),
		// port1 for the stack's CPU accesses (socket1). Exactly the
		// paper's topology.
		mhd := cxl.NewMHD("pool", 0, size, 2, sim.NewRand(cfg.Seed+1))
		dmaView, err := mhd.Connect(cxl.X8Gen5)
		if err != nil {
			return nil, err
		}
		cpuView, err := mhd.Connect(cxl.X8Gen5)
		if err != nil {
			return nil, err
		}
		serverPool = NewBufferPool("cxl", cpuView, dmaView, 0, size)
	default:
		return nil, fmt.Errorf("stack: unknown buffer mode %d", cfg.Mode)
	}

	// Client buffers always in client-local DDR.
	clientDDR := mem.NewRegion("client-ddr", 0, size, ddrTiming, sim.NewRand(cfg.Seed+2))
	clientPool := NewBufferPool("client-ddr", clientDDR, clientDDR, 0, size)

	server, err := NewServer(engine, serverNIC, serverPool, cfg.Payload, ringDepth)
	if err != nil {
		return nil, err
	}
	client, err := NewClient(engine, clientNIC, clientPool, "server", cfg.Payload, ringDepth, sim.NewRand(cfg.Seed+3))
	if err != nil {
		return nil, err
	}

	client.Window = cfg.Duration
	client.Start(0, cfg.OfferedMOPS*1e6, cfg.Duration)
	// Run to quiescence: all in-flight work drains after the last
	// arrival.
	engine.SetEventLimit(200_000_000)
	if _, err := engine.Run(); err != nil {
		return nil, err
	}

	_, _, _, _, rxDrops := serverNIC.Stats()
	elapsed := cfg.Duration
	res := &UDPBenchResult{
		Mode:          cfg.Mode,
		Payload:       cfg.Payload,
		OfferedMOPS:   cfg.OfferedMOPS,
		AchievedMOPS:  float64(client.ResponsesInWindow()) / elapsed.Seconds() / 1e6,
		P50us:         client.RTT.Percentile(50) / 1e3,
		P90us:         client.RTT.Percentile(90) / 1e3,
		P99us:         client.RTT.Percentile(99) / 1e3,
		Sent:          client.Sent(),
		Responses:     client.Responses(),
		ServerRxDrops: rxDrops,
	}
	_ = server
	return res, nil
}

// Figure3Point is a (load, percentile-set) pair for one payload/mode.
type Figure3Point = UDPBenchResult

// Figure3Sweep reproduces one panel of Figure 3: it sweeps offered load
// from lightly loaded to past saturation for both buffer modes and
// returns the two series.
//
// Every (load, mode) point is an independent simulation on its own
// engine and seed, so the sweep fans the points out across the runner's
// worker pool and slots results back by index — the returned series are
// identical to a sequential sweep.
func Figure3Sweep(payload int, loadsMOPS []float64, duration sim.Duration, seed int64) (ddr, cxlSeries []Figure3Point, err error) {
	modes := []BufferMode{BufferDDR, BufferCXL}
	ddr = make([]Figure3Point, len(loadsMOPS))
	cxlSeries = make([]Figure3Point, len(loadsMOPS))
	err = runner.Pool{}.ForEach(len(loadsMOPS)*len(modes), func(i int) error {
		load, mode := loadsMOPS[i/len(modes)], modes[i%len(modes)]
		r, err := RunUDPBench(UDPBenchConfig{
			Payload:     payload,
			OfferedMOPS: load,
			Duration:    duration,
			Mode:        mode,
			Seed:        seed,
		})
		if err != nil {
			return err
		}
		if mode == BufferDDR {
			ddr[i/len(modes)] = *r
		} else {
			cxlSeries[i/len(modes)] = *r
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ddr, cxlSeries, nil
}

// Figure3ParamSpecs declares the panel sweep's parameter surface — the
// Scenario API generates the CLI flags, usage text, and sweep axes for
// the figure3 scenario from this declaration.
func Figure3ParamSpecs() []params.Spec {
	return []params.Spec{{
		Name: "payload", Kind: params.String, Def: "all",
		Enum: []string{"75", "1500", "9000", "all"},
		Help: "UDP payload bytes for one panel, or all panels",
	}}
}

// Figure3SweepParams runs one panel from a validated parameter set:
// "payload" must hold a single size (not "all" — the caller expands
// that into per-panel clones) and "seed" drives every point. Loads
// and horizon take the panel defaults.
func Figure3SweepParams(p *params.Set) (ddr, cxlSeries []Figure3Point, err error) {
	payload, err := strconv.Atoi(p.Str("payload"))
	if err != nil {
		return nil, nil, fmt.Errorf("stack: payload %q is not a single size", p.Str("payload"))
	}
	return Figure3Sweep(payload, DefaultLoads(payload), 10*sim.Millisecond, p.Seed())
}

// DefaultLoads returns the standard sweep for a payload size, spanning
// light load to saturation (per the paper's x-axes: ~4 MOPS for 75 B,
// ~3 MOPS for 1500 B, ~1 MOPS for 9000 B).
func DefaultLoads(payload int) []float64 {
	switch {
	case payload <= 128:
		return []float64{0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	case payload <= 2048:
		return []float64{0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
	default:
		return []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
	}
}
