package cluster

import (
	"fmt"
	"testing"

	"cxlpool/internal/topo"
	"cxlpool/internal/torless"
	"cxlpool/internal/workload"
)

// uniformTopo builds a single-row fleet of identical default racks.
func uniformTopo(t *testing.T, racks int) *topo.Topology {
	t.Helper()
	tp, err := topo.Uniform(racks, topo.RackSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// testConfig is a small federated cluster with a strong rotating
// hotspot: rack capacity 200 Gbps (2 pooled NICs), four tenants per
// rack, hot tenants demand 6x baseline.
func testConfig(seed int64, federate bool) Config {
	return Config{
		TenantsPerRack: 4,
		Seed:           seed,
		Federate:       federate,
		Skew:           workload.RackSkew{HotFactor: 6, Period: 2},
	}
}

func TestPlacementPrefersLocalRack(t *testing.T) {
	c, err := New(Config{Topo: uniformTopo(t, 3), Seed: 5, Federate: true,
		Skew: workload.RackSkew{HotFactor: 1}}) // no hotspot: nobody spills
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	for _, tn := range c.Tenants() {
		if tn.Rack() != tn.Home {
			t.Fatalf("tenant %s placed in rack %d, home %d, with idle racks", tn.Name, tn.Rack(), tn.Home)
		}
	}
	local, spill, _, _ := c.Counters()
	if spill.Total() != 0 {
		t.Fatalf("spills = %d without pressure", spill.Total())
	}
	if int(local.Total()) != len(c.Tenants()) {
		t.Fatalf("local placements = %d, want %d", local.Total(), len(c.Tenants()))
	}
}

func TestHotspotSpillsToRemoteRacks(t *testing.T) {
	c, err := New(testConfig(11, true))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(2) // hotspot dwells on rack0 for both epochs
	if err != nil {
		t.Fatal(err)
	}
	_, spill, migrated, _ := c.Counters()
	if spill.Total()+migrated.Total() == 0 {
		t.Fatal("hot rack over threshold never spilled or migrated")
	}
	// Federation keeps every rack at or under the pressure threshold
	// (total demand fits the cluster comfortably).
	last := stats[len(stats)-1]
	for i, p := range last.Pressure {
		if p > pressureThreshold+0.05 {
			t.Fatalf("rack %d pressure %.2f above threshold despite federation", i, p)
		}
	}
	// Some tenants genuinely run away from home.
	remote := 0
	for _, tn := range c.Tenants() {
		if tn.Rack() != tn.Home {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("no tenant is placed remotely under a 6x hotspot")
	}
	if c.MigrationTime.Count() > 0 && c.MigrationTime.Min() <= 0 {
		t.Fatal("cross-rack migration recorded at zero cost")
	}
}

func TestRepatriationWhenHotspotMoves(t *testing.T) {
	c, err := New(testConfig(11, true))
	if err != nil {
		t.Fatal(err)
	}
	// Period 2: rack0 hot for epochs 0-1, rack1 hot for 2-3. By epoch 3
	// rack0's exiles should have come home.
	stats, err := c.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	reps := 0
	for _, st := range stats {
		reps += st.Repatriations
	}
	if reps == 0 {
		t.Fatal("no repatriation after the hotspot moved on")
	}
	for _, tn := range c.Tenants() {
		if tn.Home == 0 && tn.Rack() != 0 {
			t.Fatalf("tenant %s still exiled from cooled-down rack0", tn.Name)
		}
	}
}

func TestTrafficFlowsAndRespectsCapacity(t *testing.T) {
	c, err := New(testConfig(7, true))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		var offered, delivered float64
		for i := range c.Racks() {
			offered += st.OfferedGbps[i]
			delivered += st.DeliveredGbps[i]
			if st.DeliveredGbps[i] > c.Racks()[i].CapacityGbps()*1.05 {
				t.Fatalf("epoch %d rack %d delivered %.0f Gbps over %.0f capacity",
					st.Epoch, i, st.DeliveredGbps[i], c.Racks()[i].CapacityGbps())
			}
		}
		if offered == 0 || delivered == 0 {
			t.Fatalf("epoch %d: offered %.1f delivered %.1f Gbps — no traffic", st.Epoch, offered, delivered)
		}
		if delivered < offered*0.5 {
			t.Fatalf("epoch %d: delivered %.1f of %.1f offered Gbps under federation", st.Epoch, delivered, offered)
		}
	}
	// The pod-level monitors corroborate the demand-based pressure:
	// some rack shows real measured device load.
	anyLoad := false
	for _, l := range stats[len(stats)-1].MeasuredLoad {
		if l > 0.05 {
			anyLoad = true
		}
	}
	if !anyLoad {
		t.Fatal("orchestrator monitors measured no load under active traffic")
	}
}

func TestDrainRackRelocatesEveryTenant(t *testing.T) {
	c, err := New(testConfig(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	moved, cost, err := c.DrainRack(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 || cost <= 0 {
		t.Fatalf("drain moved %d tenants at cost %v", moved, cost)
	}
	if !c.Racks()[1].Draining() {
		t.Fatal("rack not marked draining")
	}
	for _, tn := range c.Tenants() {
		if tn.Rack() == 1 {
			t.Fatalf("tenant %s still on the drained rack", tn.Name)
		}
	}
	// Subsequent epochs run fine and nothing lands on the drained rack.
	stats, err := c.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.OfferedGbps[1] != 0 {
			t.Fatalf("epoch %d offered %.1f Gbps on a drained rack", st.Epoch, st.OfferedGbps[1])
		}
	}
	// Draining twice is rejected; draining without federation is too.
	if _, _, err := c.DrainRack(1); err == nil {
		t.Fatal("double drain accepted")
	}
	lo, err := New(testConfig(3, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lo.DrainRack(0); err == nil {
		t.Fatal("drain accepted with federation disabled")
	}
}

func TestFederationBeatsLocalOnlyUnderSkew(t *testing.T) {
	deliveredFrac := func(federate bool) float64 {
		c, err := New(testConfig(21, federate))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := c.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		var off, del float64
		for _, st := range stats {
			for i := range st.OfferedGbps {
				off += st.OfferedGbps[i]
				del += st.DeliveredGbps[i]
			}
		}
		if off == 0 {
			t.Fatal("no offered traffic")
		}
		return del / off
	}
	lo := deliveredFrac(false)
	fed := deliveredFrac(true)
	if fed <= lo {
		t.Fatalf("federation delivered %.3f of offered vs local-only %.3f — pooling benefit missing", fed, lo)
	}
}

// The cluster must be a pure function of (config, seed): identical
// stats for any worker count, and different seeds actually vary the
// tenant population.
func TestClusterDeterminism(t *testing.T) {
	render := func(workers int) string {
		cfg := testConfig(42, true)
		cfg.Workers = workers
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := c.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.DrainRack(2); err != nil {
			t.Fatal(err)
		}
		more, err := c.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, more...)
		out := ""
		for _, st := range stats {
			out += fmt.Sprintf("%+v\n", st)
		}
		local, spill, mig, drained := c.Counters()
		out += fmt.Sprintf("local=%s spill=%s mig=%s drained=%s migcost=%v\n",
			local, spill, mig, drained, c.MigrationTime.Sum())
		return out
	}
	seq := render(1)
	for _, w := range []int{0, 4} {
		if got := render(w); got != seq {
			t.Fatalf("workers=%d diverges from sequential:\n--- seq ---\n%s--- par ---\n%s", w, seq, got)
		}
	}
}

// Spills from a pressured rack must prefer same-row targets: with an
// idle rack available in the hot rack's own row, nothing crosses the
// core tier.
func TestSpillPrefersSameRow(t *testing.T) {
	tp, err := topo.MultiRow(2, 2, topo.RackSpec{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(11, true)
	cfg.Topo = tp
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(2); err != nil { // hotspot dwells on rack0 (row0)
		t.Fatal(err)
	}
	_, spill, _, _ := c.Counters()
	if spill.Total() == 0 {
		t.Fatal("6x hotspot never spilled")
	}
	for _, tn := range c.Tenants() {
		if tn.Home == 0 && tn.Rack() >= 0 && !tp.SameRow(tn.Home, tn.Rack()) {
			t.Fatalf("tenant %s spilled cross-row to rack %d with same-row capacity idle",
				tn.Name, tn.Rack())
		}
	}
	same, cross := c.RowMigrations()
	if cross != 0 {
		t.Fatalf("cross-row migrations = %d (same-row %d) with row capacity to spare", cross, same)
	}
}

// Cross-rack moves are charged by path: a cross-row migration must
// cost more than a same-row one of the same tenant state.
func TestMigrationChargedByPath(t *testing.T) {
	tp, err := topo.MultiRow(2, 2, topo.RackSpec{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1, true)
	cfg.Topo = tp
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRow := c.MigrationCost(0, 1)
	crossRow := c.MigrationCost(0, 2)
	if sameRow <= 0 || crossRow <= sameRow {
		t.Fatalf("migration costs: same-row %v, cross-row %v — want 0 < same < cross", sameRow, crossRow)
	}
	if c.RemotePenalty(0, 2) <= c.RemotePenalty(0, 1) {
		t.Fatal("cross-row remote penalty not dearer than same-row")
	}
}

// Heterogeneous racks derive capacity, pressure, and path bottlenecks
// from their own specs.
func TestHeterogeneousRackSpecs(t *testing.T) {
	tp, err := topo.Heterogeneous([]topo.RackSpec{
		{},                         // 2x100G
		{NICGbps: 40},              // 2x40G
		{Hosts: 4, NICsPerHost: 2}, // 6x100G
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(9, true)
	cfg.Topo = tp
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{200, 80, 600}
	for i, r := range c.Racks() {
		if r.CapacityGbps() != want[i] {
			t.Fatalf("rack %d capacity = %.0f Gbps, want %.0f", i, r.CapacityGbps(), want[i])
		}
	}
	// The 40G rack's bundled uplink bottlenecks any path touching it.
	if bw := tp.RackPath(0, 1).Bandwidth; bw != 20 {
		t.Fatalf("path bottleneck into the 40G rack = %v GB/s, want 20", bw)
	}
	if bw := tp.RackPath(0, 2).Bandwidth; bw != 50 {
		t.Fatalf("path between 100G racks = %v GB/s, want 50", bw)
	}
	if _, err := c.Run(1); err != nil {
		t.Fatal(err)
	}
}

// Availability aggregates torless rack outages up the tree: rows with
// more racks are strictly more available, and heterogeneous racks get
// their own per-rack figures.
func TestAvailabilityPerDomain(t *testing.T) {
	tp, err := topo.Preset(4, 2, "devices")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1, true)
	cfg.Topo = tp
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Availability(torless.DefaultFailureProbs())
	if len(out) != 4+2+1 {
		t.Fatalf("availability entries = %d, want 7 (racks+rows+root)", len(out))
	}
	byName := map[string]float64{}
	for _, d := range out {
		if d.Outage <= 0 || d.Outage >= 1 {
			t.Fatalf("domain %s outage %g outside (0,1)", d.Name, d.Outage)
		}
		byName[d.Name] = d.Outage
	}
	// Odd racks have an extra device host: strictly more available.
	if byName["rack1"] >= byName["rack0"] {
		t.Fatalf("3-device rack1 outage %g not below 2-device rack0 %g", byName["rack1"], byName["rack0"])
	}
	// A row fails only when all its racks do; the root only when all rows do.
	if byName["row0"] >= byName["rack0"] || byName["cluster"] >= byName["row0"] {
		t.Fatalf("aggregation not monotone: rack0=%g row0=%g cluster=%g",
			byName["rack0"], byName["row0"], byName["cluster"])
	}
}
