package cluster

import (
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/spine"
	"cxlpool/internal/topo"
	"cxlpool/internal/workload"
)

// spineConfig is testConfig with a strong hotspot and a finite spine:
// six tenants per rack and a 12x hotspot overrun one 200 Gbps rack, so
// the exiles' steady demand lands on the uplinks.
func spineConfig(t *testing.T, racks int, oversub float64) Config {
	t.Helper()
	return Config{
		Topo:           uniformTopo(t, racks),
		TenantsPerRack: 6,
		Seed:           7,
		Federate:       true,
		Skew:           workload.RackSkew{HotFactor: 12, Period: 2},
		Oversub:        oversub,
	}
}

// Two tenants spilling into the same finite uplink contend: the grant
// pass throttles them below their demand, and the fleet delivers
// measurably less than the same run on a non-blocking spine.
func TestSpilledTenantsContendOnUplink(t *testing.T) {
	run := func(oversub float64) (delivered uint64, throttled int, maxUtil float64) {
		c, err := New(spineConfig(t, 3, oversub))
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 2; e++ {
			st, err := c.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			throttled += st.SpineThrottled
			if st.SpineMaxUtil > maxUtil {
				maxUtil = st.SpineMaxUtil
			}
		}
		for _, tn := range c.Tenants() {
			delivered += c.Delivered(tn)
		}
		return delivered, throttled, maxUtil
	}

	delUnlimited, thrUnlimited, _ := run(0)
	delFinite, thrFinite, maxUtil := run(8) // uplinks at 25 Gbps
	if thrUnlimited != 0 {
		t.Fatalf("non-blocking spine throttled %d tenants", thrUnlimited)
	}
	if thrFinite < 2 {
		t.Fatalf("finite spine throttled %d tenants, want >= 2 contending spills", thrFinite)
	}
	if maxUtil <= 1 {
		t.Fatalf("finite spine max utilization %.2f, want oversubscribed (> 1)", maxUtil)
	}
	if delFinite >= delUnlimited {
		t.Fatalf("contention did not cost goodput: finite delivered %d >= non-blocking %d",
			delFinite, delUnlimited)
	}
}

// Contending spills still account their full demand as offered bytes:
// throttling shows up as a goodput dip, not as demand quietly vanishing.
func TestThrottledSpillStillOffersFullDemand(t *testing.T) {
	offered := func(oversub float64) (total uint64) {
		c, err := New(spineConfig(t, 3, oversub))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		for _, tn := range c.Tenants() {
			o, _ := tn.Traffic()
			total += o
		}
		return total
	}
	if unl, fin := offered(0), offered(8); fin != unl {
		t.Fatalf("offered bytes changed under throttling: finite %d, non-blocking %d", fin, unl)
	}
}

// oversubscribedUplinkFleet hand-lays placement state (no epochs run)
// on a 4-rack fleet whose odd racks pool 80 Gbps: home rack0 is past
// the threshold, so the 30 Gbps probe r0t1 must spill. r1t0 has
// spilled 1->2 and commits 60 of rack1's 80 Gbps bundle, leaving
// rack1 itself idle: the pressure winner (0/80 < 60/200 < 35/80), but
// on a finite spine its uplink cannot carry another 30 Gbps.
func oversubscribedUplinkFleet(t *testing.T, oversub float64) (*Cluster, *Tenant) {
	tp, err := topo.Preset(4, 1, "nic")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topo: tp, TenantsPerRack: 2, Seed: 3,
		Federate: true, Oversub: oversub})
	if err != nil {
		t.Fatal(err)
	}
	ts := c.Tenants()
	ts[0].rack, ts[0].gbps = 0, 150 // r0t0 at home
	ts[2].rack, ts[2].gbps = 2, 60  // r1t0 spilled into rack2
	ts[6].rack, ts[6].gbps = 3, 35  // r3t0 at home
	ts[1].gbps = 30                 // r0t1: the probe, unplaced
	return c, ts[1]
}

// checkSpillTarget runs pick on the oversubscribed-uplink fleet: on a
// non-blocking spine it must choose the pressure winner rack1, on a
// finite one the residual-capacity rack2. The differential pins that
// the ranking is link-capacity-aware.
func checkSpillTarget(t *testing.T, pick func(*testing.T, *Cluster, *Tenant) int) {
	for _, tc := range []struct {
		name    string
		oversub float64
		want    int
	}{
		{"non-blocking", 0, 1},
		{"finite", 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, probe := oversubscribedUplinkFleet(t, tc.oversub)
			if got := pick(t, c, probe); got != tc.want {
				t.Fatalf("spilled to rack%d, want rack%d", got, tc.want)
			}
		})
	}
}

// Placement never oversubscribes an uplink while a residual-capacity
// alternative exists: the reconciler, ranking over live state, lets
// rack1's mostly committed 80 Gbps bundle lose to the more pressured
// rack2.
func TestPlacementAvoidsOversubscribedUplink(t *testing.T) {
	checkSpillTarget(t, func(t *testing.T, c *Cluster, tn *Tenant) int {
		if err := c.place(tn); err != nil {
			t.Fatal(err)
		}
		return tn.Rack()
	})
}

// The admission fast path's spill probe, ranking over cached
// summaries, shares the reconciler's ranker, so the router and the
// reconciler never fight over the spill target.
func TestAdmitProbeAvoidsOversubscribedUplink(t *testing.T) {
	checkSpillTarget(t, func(t *testing.T, c *Cluster, tn *Tenant) int {
		c.refreshSummaries()
		res, err := c.Admit(tn)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rack
	})
}

// Stacked brownouts covering one path compose multiplicatively but are
// floored: migration stays expensive, never absurd.
func TestStackedBrownoutsFloorMigrationCost(t *testing.T) {
	c, err := New(Config{Topo: uniformTopo(t, 3), TenantsPerRack: 2,
		Seed: 1, Federate: true})
	if err != nil {
		t.Fatal(err)
	}
	healthy := c.MigrationCost(0, 1)

	c.spine.SetBrownouts([]spine.Brownout{
		{Src: 0, Dst: 1, Scale: 0.5}, {Src: 0, Dst: 1, Scale: 0.5},
	})
	quarter := c.MigrationCost(0, 1)
	base := c.cfg.Topo.RackPath(0, 1)
	wantQuarter := base.RTT() + mem.GBps(float64(base.Bandwidth)*0.25).TransferTime(DefaultTenantState)
	if quarter != wantQuarter {
		t.Fatalf("two 0.5 brownouts: cost %v, want multiplicative %v", quarter, wantQuarter)
	}

	stack := make([]spine.Brownout, 8)
	for i := range stack {
		stack[i] = spine.Brownout{Src: 0, Dst: 1, Scale: 0.1}
	}
	c.spine.SetBrownouts(stack)
	floored := c.MigrationCost(0, 1)
	wantFloor := base.RTT() + mem.GBps(float64(base.Bandwidth)*spine.MinPathScale).TransferTime(DefaultTenantState)
	if floored != wantFloor {
		t.Fatalf("stacked brownouts: cost %v, want floored %v (healthy %v)", floored, wantFloor, healthy)
	}

	c.spine.SetBrownouts(nil)
	if got := c.MigrationCost(0, 1); got != healthy {
		t.Fatalf("cost after clearing brownouts %v, want healthy %v", got, healthy)
	}
}

// A whole-rack drain's state streams serialize on the shared uplink:
// the same drain costs strictly more on a finite spine than on the
// non-blocking one, and the queueing wait is booked on the links.
func TestDrainQueuesOnFiniteUplinks(t *testing.T) {
	drainCost := func(oversub float64) (moved int, cost int64, wait int64) {
		c, err := New(spineConfig(t, 3, oversub))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		m, d, err := c.DrainRack(1)
		if err != nil {
			t.Fatal(err)
		}
		var w int64
		for _, l := range c.SpineLinks() {
			w += int64(l.WaitTotal)
		}
		return m, int64(d), w
	}

	movedU, costU, waitU := drainCost(0)
	movedF, costF, waitF := drainCost(1)
	if movedU != movedF || movedU < 2 {
		t.Fatalf("drains moved %d vs %d tenants, want equal and >= 2", movedU, movedF)
	}
	if waitU != 0 {
		t.Fatalf("non-blocking drain booked %d ns of link wait", waitU)
	}
	if waitF <= 0 || costF <= costU {
		t.Fatalf("finite drain cost %d (wait %d) not above non-blocking %d — streams did not queue",
			costF, waitF, costU)
	}
}

// The non-blocking spine is the legacy fabric bit-for-bit: same
// placements, same traffic, same migration costs as the pinned seed
// behavior (the all_seed42 golden pins this fleet-wide; this is the
// fast in-package check).
func TestUnlimitedSpineMatchesLegacyRun(t *testing.T) {
	run := func() []EpochStats {
		c, err := New(spineConfig(t, 3, 0))
		if err != nil {
			t.Fatal(err)
		}
		sts, err := c.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return sts
	}
	a, b := run(), run()
	for i := range a {
		if a[i].SpineThrottled != 0 || a[i].SpineMaxUtil != 0 || a[i].SpineQueuedGbps != 0 {
			t.Fatalf("epoch %d: non-blocking spine reported contention: %+v", i, a[i])
		}
		for r := range a[i].DeliveredGbps {
			if a[i].DeliveredGbps[r] != b[i].DeliveredGbps[r] {
				t.Fatalf("epoch %d rack %d: runs diverged", i, r)
			}
		}
	}
}
