package orch

import (
	"errors"
	"testing"

	"cxlpool/internal/core"
	"cxlpool/internal/sim"
)

// rig builds a pod with hosts×nics NICs, all registered.
func rig(t testing.TB, hosts, nicsPerHost int, policy Policy) (*core.Pod, *Orchestrator) {
	t.Helper()
	p, err := core.NewPod(core.Config{
		Hosts:             hosts,
		NICsPerHost:       nicsPerHost,
		Seed:              13,
		AgentPollInterval: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(p, "host0", policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	return p, o
}

func TestRegisterAndDevices(t *testing.T) {
	_, o := rig(t, 3, 2, LocalFirst)
	if got := len(o.order); got != 6 {
		t.Fatalf("devices = %d", got)
	}
	if _, err := o.Assignment("ghost"); !errors.Is(err, ErrUnknownVNIC) {
		t.Fatalf("err = %v", err)
	}
}

func TestAllocateLocalFirst(t *testing.T) {
	p, o := rig(t, 3, 1, LocalFirst)
	h1, _ := p.Host("host1")
	v, err := o.Allocate(h1, "v0", core.VNICConfig{BufSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	// All loads are zero, so the local device must win.
	dev, err := o.Assignment("v0")
	if err != nil {
		t.Fatal(err)
	}
	if dev != "host1-nic0" {
		t.Fatalf("local-first allocated %q, want host1-nic0", dev)
	}
	if v.Owner().Name() != "host1" {
		t.Fatalf("owner = %s", v.Owner().Name())
	}
	if _, err := o.Allocate(h1, "v0", core.VNICConfig{}); err == nil {
		t.Fatal("duplicate vNIC accepted")
	}
}

func TestAllocateLocalFirstSkipsOverloadedLocal(t *testing.T) {
	p, o := rig(t, 2, 1, LocalFirst)
	h0, _ := p.Host("host0")
	// Pretend host0's NIC is hot.
	o.devices["host0-nic0"].load = 0.9
	v, err := o.Allocate(h0, "v", core.VNICConfig{BufSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if v.Phys().Name() != "host1-nic0" {
		t.Fatalf("allocated %q; local device above threshold must be skipped", v.Phys().Name())
	}
	_ = p
}

// End-to-end failover (§4.2 + §2.2): traffic flows through a remote NIC,
// the NIC dies, the orchestrator detects it via shared-memory records
// and remaps; traffic resumes without manual intervention.
func TestAutomaticFailover(t *testing.T) {
	p, o := rig(t, 3, 1, LeastUtilized)
	h0, _ := p.Host("host0")
	h2, _ := p.Host("host2")

	v, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 512, TxBuffers: 256, RxBuffers: 64})
	if err != nil {
		t.Fatal(err)
	}
	firstDev := v.Phys().Name()

	sink := core.NewVirtualNIC(h2, "sink", core.VNICConfig{BufSize: 512, RxBuffers: 256})
	if _, err := sink.Bind(h2, "host2-nic0"); err != nil {
		t.Fatal(err)
	}
	var delivered int
	sink.OnReceive(func(_ sim.Time, _ string, _ []byte) { delivered++ })

	if err := o.Start(); err != nil {
		t.Fatal(err)
	}

	// Steady traffic: one packet every 50us via engine-paced sends.
	var sent int
	var sender func(t sim.Time)
	sender = func(t sim.Time) {
		if t > 30*sim.Millisecond {
			return
		}
		if _, err := v.Send(t, "host2-nic0", []byte("flow")); err == nil {
			sent++
		}
		p.Engine.At(t+50*sim.Microsecond, func() { sender(t + 50*sim.Microsecond) })
	}
	p.Engine.At(0, func() { sender(0) })

	// Kill the serving NIC at 10ms.
	p.Engine.At(10*sim.Millisecond, func() {
		nic := v.Phys()
		if nic != nil {
			nic.Fail()
		}
	})

	if _, err := p.Engine.RunUntil(35 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	failovers, _, sweeps := o.Stats()
	if sweeps == 0 {
		t.Fatal("monitor never swept")
	}
	if failovers != 1 {
		t.Fatalf("failovers = %d, want 1", failovers)
	}
	newDev, err := o.Assignment("v0")
	if err != nil {
		t.Fatal(err)
	}
	if newDev == firstDev {
		t.Fatalf("vNIC still assigned to failed device %q", newDev)
	}
	// Downtime bounded by publish+monitor intervals plus remap cost.
	if o.FailoverTime.Count() != 1 {
		t.Fatalf("failover samples = %d", o.FailoverTime.Count())
	}
	down := o.FailoverTime.Percentile(50)
	if down <= 0 || down > 2e6 {
		t.Fatalf("failover downtime %.0fns outside (0, 2ms]", down)
	}
	// Traffic resumed: deliveries continued after the failure window.
	if delivered < sent*7/10 {
		t.Fatalf("delivered %d of %d; failover did not restore the flow", delivered, sent)
	}
	if delivered < 400 {
		t.Fatalf("only %d deliveries in 30ms of 20kpps traffic", delivered)
	}
}

func TestLoadMonitoringTracksTraffic(t *testing.T) {
	p, o := rig(t, 2, 1, LeastUtilized)
	h0, _ := p.Host("host0")
	v, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 9000, TxBuffers: 512, RxBuffers: 64})
	if err != nil {
		t.Fatal(err)
	}
	dev := v.Phys().Name()
	other := "host0-nic0"
	if dev == other {
		other = "host1-nic0"
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	// Blast jumbo frames to push measurable load.
	payload := make([]byte, 8192)
	var pump func(t sim.Time)
	pump = func(t sim.Time) {
		if t > 5*sim.Millisecond {
			return
		}
		_, _ = v.Send(t, other, payload)
		p.Engine.At(t+2*sim.Microsecond, func() { pump(t + 2*sim.Microsecond) })
	}
	p.Engine.At(0, func() { pump(0) })
	// Sample while traffic is flowing (load is a rate, not a counter).
	var load, idle float64
	p.Engine.At(4500*sim.Microsecond, func() {
		load = o.devices[dev].load
		idle = o.devices[other].load
	})
	if _, err := p.Engine.RunUntil(6 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if load < 0.2 {
		t.Fatalf("monitored load %.3f; 8KB every 2us should exceed 0.2 of line rate", load)
	}
	if idle > load/2 {
		t.Fatalf("idle device load %.3f vs busy %.3f", idle, load)
	}
}

func TestRebalanceMovesFlowOffHotDevice(t *testing.T) {
	p, o := rig(t, 2, 1, LeastUtilized)
	o.EnableRebalance = true
	o.RebalanceGap = 0.2
	h0, _ := p.Host("host0")
	v, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 9000, TxBuffers: 512, RxBuffers: 64})
	if err != nil {
		t.Fatal(err)
	}
	first := v.Phys().Name()
	other := "host0-nic0"
	if first == other {
		other = "host1-nic0"
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8192)
	var pump func(t sim.Time)
	pump = func(t sim.Time) {
		if t > 8*sim.Millisecond {
			return
		}
		_, _ = v.Send(t, other, payload)
		p.Engine.At(t+2*sim.Microsecond, func() { pump(t + 2*sim.Microsecond) })
	}
	p.Engine.At(0, func() { pump(0) })
	if _, err := p.Engine.RunUntil(9 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, migrations, _ := o.Stats()
	if migrations == 0 {
		t.Fatal("rebalancer never moved the hot flow")
	}
	now, err := o.Assignment("v0")
	if err != nil {
		t.Fatal(err)
	}
	if now == first {
		t.Fatalf("vNIC still on the hot device %q", now)
	}
}

func TestExplicitMigrate(t *testing.T) {
	p, o := rig(t, 2, 1, LocalFirst)
	h0, _ := p.Host("host0")
	if _, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 256}); err != nil {
		t.Fatal(err)
	}
	if err := o.Migrate("v0", "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	dev, _ := o.Assignment("v0")
	if dev != "host1-nic0" {
		t.Fatalf("assignment = %q", dev)
	}
	if err := o.Migrate("ghost", "host1-nic0"); !errors.Is(err, ErrUnknownVNIC) {
		t.Fatalf("err = %v", err)
	}
	if err := o.Migrate("v0", "ghost"); !errors.Is(err, ErrUnknownPhys) {
		t.Fatalf("err = %v", err)
	}
	_ = p
}

func TestDrainHostForMaintenance(t *testing.T) {
	p, o := rig(t, 3, 1, LeastUtilized)
	h0, _ := p.Host("host0")
	// Force assignment onto host1's device.
	v, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Migrate("v0", "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	moved, err := o.DrainHost("host1")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d", moved)
	}
	dev, _ := o.Assignment("v0")
	if dev == "host1-nic0" {
		t.Fatal("assignment still on drained host")
	}
	// Drained host's devices are not picked for new allocations.
	for i := 0; i < 4; i++ {
		vn, err := o.Allocate(h0, string(rune('a'+i)), core.VNICConfig{BufSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		if vn.Owner().Name() == "host1" {
			t.Fatal("allocation landed on drained host")
		}
	}
	// Now the host can be hot-removed from the pod.
	if err := p.DetachHost("host1"); err != nil {
		t.Fatal(err)
	}
	_ = v
}

func TestStartValidation(t *testing.T) {
	p, err := core.NewPod(core.Config{Hosts: 1, NICsPerHost: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(p, "host0", LocalFirst)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); !errors.Is(err, ErrNoDevices) {
		t.Fatalf("err = %v", err)
	}
	if _, err := New(p, "ghost", LocalFirst); err == nil {
		t.Fatal("unknown home host accepted")
	}
}

func BenchmarkFailoverDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, o := rig(b, 3, 1, LeastUtilized)
		h0, _ := p.Host("host0")
		v, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 256})
		if err != nil {
			b.Fatal(err)
		}
		if err := o.Start(); err != nil {
			b.Fatal(err)
		}
		p.Engine.At(sim.Millisecond, func() { v.Phys().Fail() })
		if _, err := p.Engine.RunUntil(5 * sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
