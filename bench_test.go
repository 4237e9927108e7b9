// Package cxlpool's root benchmarks regenerate every table and figure
// in the paper, one benchmark per artifact (plus ablations). Run with:
//
//	go test -bench=. -benchmem
//
// Each iteration performs the complete experiment; per-op wall time is
// the cost of regenerating that artifact. The printed artifact content
// itself comes from `go run ./cmd/cxlpool all`.
package cxlpool

import (
	"context"
	"io"
	"strconv"
	"testing"

	"cxlpool/internal/cluster"
	"cxlpool/internal/core"
	"cxlpool/internal/experiments"
	"cxlpool/internal/orch"
	"cxlpool/internal/shm"
	"cxlpool/internal/sim"
	"cxlpool/internal/stack"
	"cxlpool/internal/stranding"
	"cxlpool/internal/topo"
	"cxlpool/internal/torless"
	"cxlpool/internal/workload"
)

// benchSeed is the one input every benchmark runs, on every iteration.
// A seed drawn per iteration would make allocs/op and ns/op the mean
// over the first b.N seeds, so a one-iteration smoke run and a 1 s run
// would measure different inputs.
const benchSeed int64 = 42

// BenchmarkFigure2Stranding regenerates Figure 2 (stranded CPU, memory,
// SSD, and NIC capacity in a saturated cluster).
func BenchmarkFigure2Stranding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := stranding.PackCluster(stranding.Config{Hosts: 2000, Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2XL is the 20k-host scale-up the bucketed packer index
// enables (E13): ten Figure 2 clusters' worth of hosts per iteration.
func BenchmarkFigure2XL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := stranding.PackCluster(stranding.Config{Hosts: 20000, Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllExperiments regenerates every artifact through the
// parallel runner — the end-to-end `cxlpool all` cost.
func BenchmarkAllExperiments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(io.Discard, benchSeed, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSqrtNPooling regenerates the §2.1 pooling table (SSD
// 54%→19%, NIC 29%→10% at N=8).
func BenchmarkSqrtNPooling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := stranding.PoolingStudy(stranding.Config{Seed: benchSeed},
			[]int{1, 2, 4, 8, 16, 32}, 0.99); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFigure3 runs one representative point of a Figure 3 panel in
// both buffer modes.
func benchFigure3(b *testing.B, payload int, loadMOPS float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, mode := range []stack.BufferMode{stack.BufferDDR, stack.BufferCXL} {
			if _, err := stack.RunUDPBench(stack.UDPBenchConfig{
				Payload:     payload,
				OfferedMOPS: loadMOPS,
				Duration:    5 * sim.Millisecond,
				Mode:        mode,
				Seed:        benchSeed,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure3UDP75B regenerates Figure 3(a): 75 B payloads.
func BenchmarkFigure3UDP75B(b *testing.B) { benchFigure3(b, 75, 2.0) }

// BenchmarkFigure3UDP1500B regenerates Figure 3(b): 1500 B payloads.
func BenchmarkFigure3UDP1500B(b *testing.B) { benchFigure3(b, 1500, 1.5) }

// BenchmarkFigure3UDP9000B regenerates Figure 3(c): 9000 B payloads.
func BenchmarkFigure3UDP9000B(b *testing.B) { benchFigure3(b, 9000, 0.6) }

// BenchmarkFigure4PingPong regenerates Figure 4: one-way message
// latency through non-coherent CXL shared memory.
func BenchmarkFigure4PingPong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := shm.PingPong(shm.PingPongConfig{Messages: 20000, Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModel regenerates the §1/§3 rack economics comparison.
func BenchmarkCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunText(io.Discard, "cost", benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLanePlanner regenerates the §5 lane-requirement table.
func BenchmarkLanePlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunText(io.Discard, "lanes", benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryLatency regenerates the §3 idle-latency ladder (DDR /
// direct CXL / switched CXL).
func BenchmarkMemoryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunText(io.Discard, "memlat", benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailover regenerates the §4.2 failover experiment: NIC
// failure, shared-memory health detection, orchestrated remap.
func BenchmarkFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pod, err := core.NewPod(core.Config{Hosts: 3, NICsPerHost: 1, Seed: benchSeed, AgentPollInterval: 1000})
		if err != nil {
			b.Fatal(err)
		}
		o, err := orch.New(pod, "host0", orch.LeastUtilized)
		if err != nil {
			b.Fatal(err)
		}
		if err := o.RegisterAll(); err != nil {
			b.Fatal(err)
		}
		h0, err := pod.Host("host0")
		if err != nil {
			b.Fatal(err)
		}
		v, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 512})
		if err != nil {
			b.Fatal(err)
		}
		if err := o.Start(); err != nil {
			b.Fatal(err)
		}
		pod.Engine.At(sim.Millisecond, func() { v.Phys().Fail() })
		if _, err := pod.Engine.RunUntil(5 * sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		if o.FailoverTime.Count() == 0 {
			b.Fatal("failover did not happen")
		}
	}
}

// BenchmarkAblationCoherence runs the E9 publish-strategy ablation
// (non-temporal store vs write+CLFLUSH).
func BenchmarkAblationCoherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mode := range []shm.SendMode{shm.ModeNT, shm.ModeWriteFlush} {
			if _, err := shm.PingPong(shm.PingPongConfig{Messages: 5000, Seed: benchSeed, Mode: mode}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationSwitchedPod runs the E9 MHD-vs-CXL-switch ablation.
func BenchmarkAblationSwitchedPod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, switched := range []bool{false, true} {
			if _, err := shm.PingPong(shm.PingPongConfig{Messages: 5000, Seed: benchSeed, Switched: switched}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkToRless regenerates the §5 rack-network reliability
// comparison.
func BenchmarkToRless(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := torless.Analyze(torless.Config{Trials: 50000, Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVNICRemoteDatapath measures the pooled-NIC datapath itself:
// one packet from a user host through a remote owner's NIC.
func BenchmarkVNICRemoteDatapath(b *testing.B) {
	pod, err := core.NewPod(core.Config{Hosts: 2, NICsPerHost: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h0, err := pod.Host("host0")
	if err != nil {
		b.Fatal(err)
	}
	h1, err := pod.Host("host1")
	if err != nil {
		b.Fatal(err)
	}
	v := core.NewVirtualNIC(h0, "v", core.VNICConfig{BufSize: 2048, TxBuffers: 1024, RxBuffers: 1024, ChannelSlots: 2048})
	if _, err := v.Bind(h1, "host1-nic0"); err != nil {
		b.Fatal(err)
	}
	sink := core.NewVirtualNIC(h1, "s", core.VNICConfig{BufSize: 2048, RxBuffers: 1024, ChannelSlots: 2048})
	if _, err := sink.Bind(h0, "host0-nic0"); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1500)
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := v.Send(now, "host0-nic0", payload)
		if err != nil {
			b.Fatal(err)
		}
		now += d + 3000
		if i%128 == 0 {
			if _, err := pod.Engine.RunUntil(now); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClusterFederation is the rack-scale bench: a federated
// 4-rack cluster (each rack a full pod with its own orchestrator)
// absorbing a 12x rotating hotspot for four epochs — E14's scenario
// without the size sweep. Per-op cost is one multi-rack control-plane
// cycle: placement, pressure spills, repatriation, and the simulated
// tenant traffic underneath.
func BenchmarkClusterFederation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{
			TenantsPerRack: 6, // default topology: one row of four racks
			Seed:           benchSeed,
			Federate:       true,
			Skew:           workload.RackSkew{HotFactor: 12, Period: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(4); err != nil {
			b.Fatal(err)
		}
		if _, _, mig, _ := c.Counters(); mig.Total() == 0 {
			b.Fatal("federation cycle moved nothing")
		}
	}
}

// BenchmarkMultiRow is the fleet-topology bench: a 2-row x 4-rack
// cluster under the same rotating hotspot, with placement ranking
// spill targets by path hops and every move charged by path
// aggregation over the topology tree (E15's scenario shape).
func BenchmarkMultiRow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp, err := topo.MultiRow(2, 4, topo.RackSpec{})
		if err != nil {
			b.Fatal(err)
		}
		c, err := cluster.New(cluster.Config{
			Topo:           tp,
			TenantsPerRack: 6,
			Seed:           benchSeed,
			Federate:       true,
			Epoch:          sim.Millisecond,
			Skew:           workload.RackSkew{HotFactor: 12, Period: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(4); err != nil {
			b.Fatal(err)
		}
		if _, _, mig, _ := c.Counters(); mig.Total() == 0 {
			b.Fatal("fleet cycle moved nothing")
		}
	}
}

// BenchmarkFailuresScenario regenerates E16 end to end: the scripted
// rack-kill storyline against the default remediation rules, through
// the full scenario layer (schedule build, epoch loop with fault
// strikes/repairs, policy heartbeats, report rendering).
func BenchmarkFailuresScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunText(io.Discard, "failures", benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailuresCorrelated exercises the correlated-domain path of
// E16: the mixed storyline (every class, including pdufail domain
// kills, cracfail row throttles, and hostkill partial degradations)
// under a single starved repair crew — schedule validation, the crew
// priority queue, rate-limited policy heartbeats, the headline
// rate-limit sweep, and report rendering.
func BenchmarkFailuresCorrelated(b *testing.B) {
	s, ok := experiments.Lookup("failures")
	if !ok {
		b.Fatal("failures not registered")
	}
	for i := 0; i < b.N; i++ {
		p := s.NewParams()
		for name, v := range map[string]string{
			"seed":  strconv.FormatInt(benchSeed, 10),
			"class": "mix",
			"crews": "1",
		} {
			if err := p.Set(name, v); err != nil {
				b.Fatal(err)
			}
		}
		rep, err := s.Run(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.WriteString(io.Discard, rep.Text()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnAdmission exercises E17 end to end: schedule
// generation (bursty arrivals, heavy-tailed lifetimes), the admission
// fast path (cached headroom, spill probes, typed rejects), departures,
// warm-pool autoscaling, and report rendering.
func BenchmarkChurnAdmission(b *testing.B) {
	s, ok := experiments.Lookup("churn")
	if !ok {
		b.Fatal("churn not registered")
	}
	for i := 0; i < b.N; i++ {
		p := s.NewParams()
		for _, kv := range [][2]string{
			{"seed", strconv.FormatInt(benchSeed, 10)},
			{"arrivals", "bursty"},
			{"lifetime", "pareto"},
			{"rate", "8"},
			{"epochs", "12"},
		} {
			if err := p.Set(kv[0], kv[1]); err != nil {
				b.Fatal(err)
			}
		}
		rep, err := s.Run(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.WriteString(io.Discard, rep.Text()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageComparison regenerates E12: local vs CXL-pooled vs
// NVMe-oF 4K read latency on two media profiles.
func BenchmarkStorageComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunText(io.Discard, "storage", benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPooledNICDatapath regenerates E11: request/response RTT
// through a local vs pooled NIC.
func BenchmarkPooledNICDatapath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunText(io.Discard, "pooled", benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpineContention is the congested-datapath bench: a 2-row x
// 3-rack federated fleet under a 12x rotating hotspot with 4:1
// oversubscribed uplinks (E18's congested regime). Per-op cost adds
// the spine's work to the federation cycle: per-epoch flow ledgers,
// fair-share grants, queued migration transfers, and link accounting.
func BenchmarkSpineContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp, err := topo.MultiRow(2, 3, topo.RackSpec{})
		if err != nil {
			b.Fatal(err)
		}
		c, err := cluster.New(cluster.Config{
			Topo:           tp,
			TenantsPerRack: 6,
			Seed:           benchSeed,
			Federate:       true,
			Oversub:        4,
			Skew:           workload.RackSkew{HotFactor: 12, Period: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(4); err != nil {
			b.Fatal(err)
		}
		if _, _, mig, _ := c.Counters(); mig.Total() == 0 {
			b.Fatal("contended federation cycle moved nothing")
		}
	}
}

// BenchmarkClusterNew measures fleet construction alone in
// fleet-hotspot's shape (2 rows x 4 racks, 6 tenants per rack): every
// rack pod, orchestrator and warm NIC, and one vNIC bind per tenant,
// each carving its TX/RX buffers and two sanitized channels from the
// rack's CXL pool. The input is fixed, so every iteration does the
// same work.
func BenchmarkClusterNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp, err := topo.MultiRow(2, 4, topo.RackSpec{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.New(cluster.Config{
			Topo:           tp,
			TenantsPerRack: 6,
			Seed:           benchSeed,
			Federate:       true,
			Workers:        1,
			Epoch:          sim.Millisecond,
			Skew:           workload.RackSkew{HotFactor: 12, Period: 2},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
