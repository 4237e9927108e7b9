package cluster

import (
	"testing"

	"cxlpool/internal/faults"
	"cxlpool/internal/sim"
	"cxlpool/internal/topo"
	"cxlpool/internal/workload"
)

// TestSinkRxRingStaysFull pins the assumption the sinks' one-buffer RX
// ring rests on: a sink is bound to its own host's NIC, so each RX
// completion is delivered and its buffer reposted inside the NIC's
// FromWire, and between events the ring again holds the one buffer the
// sink posted at bind. A deferred sink delivery would leave the ring
// empty after a frame and drop the next one. Two fleets run:
// fleet-hotspot's 8-rack 12x rotating hotspot, and the same racks under
// a random schedule of every fault class with one repair crew.
func TestSinkRxRingStaysFull(t *testing.T) {
	const epochs = 30
	hotspot := func(t *testing.T) Config {
		tp, err := topo.MultiRow(2, 4, topo.RackSpec{})
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Topo:           tp,
			TenantsPerRack: 6,
			Seed:           42,
			Federate:       true,
			Epoch:          sim.Millisecond,
			Skew:           workload.RackSkew{HotFactor: 12, Period: 2},
		}
	}
	faulted := func(t *testing.T) Config {
		cfg := hotspot(t)
		tp, err := cfg.Topo.WithPDUSpan(2)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := faults.Random(faults.RandomConfig{
			Epochs: epochs, Racks: tp.RackCount(), Rows: tp.RowCount(), PDUs: tp.PDUCount(),
			HostsPerRack: tp.Rack(0).Spec.Hosts,
			Rate:         0.5, MinDuration: 1, MaxDuration: 4, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		drawn := map[faults.Class]bool{}
		for _, ev := range sched.Events() {
			drawn[ev.Class] = true
		}
		if len(drawn) != faults.ClassCount {
			t.Fatalf("schedule draws %d of the %d fault classes", len(drawn), faults.ClassCount)
		}
		cfg.Topo, cfg.Faults, cfg.Crews = tp, sched, 1
		cfg.Remediate = DefaultRules()
		cfg.Oversub = 4
		cfg.Epoch = 50 * sim.Microsecond
		return cfg
	}
	for _, tc := range []struct {
		name   string
		cfg    func(*testing.T) Config
		epochs int
	}{
		{"hotspot", hotspot, 6},
		{"faults", faulted, epochs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range c.Racks() {
				for _, s := range r.sinks {
					if got := s.Phys().RxRingLen(); got != 1 {
						t.Fatalf("%s posted %d RX buffers, want 1", s.Name(), got)
					}
				}
			}
			for e := 0; e < tc.epochs; e++ {
				if _, err := c.RunEpoch(); err != nil {
					t.Fatal(err)
				}
				for _, r := range c.Racks() {
					for _, s := range r.sinks {
						if got := s.Phys().RxRingLen(); got != 1 {
							t.Fatalf("epoch %d: %s ring holds %d buffers, want 1", e, s.Name(), got)
						}
						if _, _, _, _, drops := s.Phys().Stats(); drops != 0 {
							t.Fatalf("epoch %d: %s dropped %d frames", e, s.Name(), drops)
						}
					}
				}
			}
			var delivered uint64
			for _, r := range c.Racks() {
				delivered += r.deliveredBytes
			}
			if delivered == 0 {
				t.Fatal("no frame reached a sink")
			}
		})
	}
}
