package orch

import (
	"testing"

	"cxlpool/internal/core"
	"cxlpool/internal/sim"
)

func TestHarvestDistinctDevices(t *testing.T) {
	p, o := rig(t, 4, 1, LeastUtilized)
	h0, _ := p.Host("host0")
	vs, err := o.Harvest(h0, "hv", 4, core.VNICConfig{BufSize: 2048, TxBuffers: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 4 {
		t.Fatalf("harvested %d/4", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		name := v.Phys().Name()
		if seen[name] {
			t.Fatalf("device %s harvested twice", name)
		}
		seen[name] = true
	}
}

func TestHarvestBoundedByPool(t *testing.T) {
	p, o := rig(t, 2, 1, LeastUtilized)
	h0, _ := p.Host("host0")
	vs, err := o.Harvest(h0, "hv", 10, core.VNICConfig{BufSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("harvested %d, pool only has 2 devices", len(vs))
	}
	if _, err := o.Harvest(h0, "hv2", 1, core.VNICConfig{BufSize: 512}); err == nil {
		t.Fatal("harvest from exhausted pool succeeded")
	}
	if _, err := o.Harvest(h0, "x", 0, core.VNICConfig{}); err == nil {
		t.Fatal("zero harvest accepted")
	}
}

func TestHarvestAggregatesBandwidth(t *testing.T) {
	// One host drives 4 pooled NICs at once; aggregate egress must be
	// several times what one NIC path delivers in the same window.
	// Jumbo buffers need a larger shared segment than the default pod.
	p, err := core.NewPod(core.Config{
		Hosts:             4,
		NICsPerHost:       1,
		DeviceSize:        128 << 20,
		SharedSize:        64 << 20,
		Seed:              13,
		AgentPollInterval: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(p, "host0", LeastUtilized)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	h0, _ := p.Host("host0")
	vs, err := o.Harvest(h0, "hv", 4, core.VNICConfig{BufSize: 9000, TxBuffers: 512, RxBuffers: 16})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8192)
	end := 5 * sim.Millisecond
	for i, v := range vs {
		v := v
		dst := vs[(i+1)%len(vs)].Phys().Name()
		var pump func(t sim.Time)
		pump = func(ts sim.Time) {
			if ts > end {
				return
			}
			_, _ = v.Send(ts, dst, payload)
			p.Engine.At(ts+3*sim.Microsecond, func() { pump(ts + 3*sim.Microsecond) })
		}
		p.Engine.At(0, func() { pump(0) })
	}
	if _, err := p.Engine.RunUntil(end + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var total, max uint64
	for _, v := range vs {
		_, _, b, _, _ := v.Phys().Stats()
		total += b
		if b > max {
			max = b
		}
	}
	if total < 3*max {
		t.Fatalf("aggregate %d not >=3x best single device %d", total, max)
	}
	if total == 0 {
		t.Fatal("no harvested traffic")
	}
}

// Harvested vNICs must be covered by failover exactly like Allocated
// ones: the orchestrator's assignment walks iterate vnicOrder, and
// Harvest registers there too (regression test — an early version
// appended only in Allocate, leaving harvested vNICs stranded on dead
// devices).
func TestHarvestedVNICsFailOver(t *testing.T) {
	p, o := rig(t, 3, 1, LeastUtilized)
	h0, _ := p.Host("host0")
	vs, err := o.Harvest(h0, "hv", 2, core.VNICConfig{BufSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	victim := vs[0]
	failed := victim.Phys().Name()
	p.Engine.At(2*sim.Millisecond, func() { victim.Phys().Fail() })
	if _, err := p.Engine.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if victim.Phys() == nil || victim.Phys().Name() == failed || victim.Phys().Failed() {
		t.Fatalf("harvested vNIC stranded on failed device %s", failed)
	}
	failovers, _, _ := o.Stats()
	if failovers == 0 {
		t.Fatal("no failover recorded for harvested vNIC")
	}
}
