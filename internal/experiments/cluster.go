package experiments

import (
	"context"
	"fmt"

	"cxlpool/internal/cluster"
	"cxlpool/internal/params"
	"cxlpool/internal/report"
	"cxlpool/internal/sim"
	"cxlpool/internal/topo"
	"cxlpool/internal/torless"
)

// clusterParamSpecs is the E14 parameter surface: the original
// racks/workers knobs plus a topology preset selector and the row and
// heterogeneity knobs it reads.
func clusterParamSpecs() []params.Spec {
	return []params.Spec{
		{Name: "racks", Kind: params.Int, Def: "4", Min: 2, Max: 64, Bounded: true,
			Help: "failure-domain (rack) count"},
		workersSpec(),
		{Name: "topo", Kind: params.String, Def: "uniform",
			Enum: []string{"uniform", "multirow", "het"},
			Help: "topology preset: uniform (one row, identical racks), multirow (-rows rows), het (-rows rows, -het profile)"},
		{Name: "rows", Kind: params.Int, Def: "1", Min: 1, Max: 16, Bounded: true,
			Help: "rows for the multirow/het presets (racks split contiguously)"},
		{Name: "het", Kind: params.String, Def: "mixed",
			Enum: topo.HetProfiles(),
			Help: "rack heterogeneity profile for -topo het (odd racks differ)"},
	}
}

// runClusterFederation is E14: the paper's pooling argument taken to
// fleet scale. A federated cluster of racks — each rack a fully
// simulated pod with its own orchestrator — absorbs a rotating demand
// hotspot by spilling tenants across the inter-rack fabric, survives a
// whole-rack maintenance drain, and repatriates exiles when their home
// cools down. The closing sweep reproduces the pooling-benefit curve
// at rack granularity: hot-rack tenant goodput vs cluster size,
// isolated racks against federation. Output is byte-identical for any
// worker count.
func runClusterFederation(_ context.Context, p *params.Set) (*report.Report, error) {
	racks, workers := p.Int("racks"), p.Int("workers")
	if racks < 2 {
		return nil, fmt.Errorf("experiments: cluster needs >= 2 racks, got %d", racks)
	}
	base, err := fleetConfig(p)
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(clusterShape(base, true))
	if err != nil {
		return nil, err
	}
	cfg := c.Config() // effective config: topology defaulted
	spec := cfg.Topo.Rack(0).Spec
	nDomains := len(c.Racks())
	r := newReport("cluster", p)
	r.Linef("E14: cluster federation — %d racks x %d hosts, %d tenants/rack, %gx rotating hotspot",
		nDomains, spec.Hosts, cfg.TenantsPerRack, cfg.Skew.HotFactor)
	r.Linef("fabric: %v; %v; migration %v for %d MiB state",
		c.IntraRackTier(), c.InterRackTier(0, 1),
		c.MigrationCost(0, 1), cluster.DefaultTenantState>>20)
	r.Blank()

	cols := []report.Column{
		report.NumCol("epoch"), report.StrCol("hot"),
		report.NumCol("xmig"), report.NumCol("rep"),
	}
	for i := 0; i < nDomains; i++ {
		cols = append(cols, report.StrCol(fmt.Sprintf("rack%d off>del Gbps", i)))
	}
	t := r.AddTable("epochs", cols...)
	stats, drainMoved, drainCost, err := drainedRun(c)
	if err != nil {
		return nil, err
	}
	for e, st := range stats {
		row := []report.Cell{
			report.Num(float64(st.Epoch), "%d", st.Epoch),
			report.Strf("rack%d", st.HotRack),
			report.Num(float64(st.Migrations), "%d", st.Migrations),
			report.Num(float64(st.Repatriations), "%d", st.Repatriations),
		}
		for i := 0; i < nDomains; i++ {
			cell := report.Strf("%3.0f>%3.0f (p=%.2f)", st.OfferedGbps[i], st.DeliveredGbps[i], st.Pressure[i])
			if i == drainRack && e >= drainAt {
				cell = report.Str("  drained")
			}
			row = append(row, cell)
		}
		t.Row(row...)
	}

	local, spill, mig, _ := c.Counters()
	r.Blank()
	r.Linef("placements: local=%d spill=%d | cross-rack migrations out: %s (total %d)",
		local.Total(), spill.Total(), mig.String(), mig.Total())
	r.Linef("rack drain: rack%d at epoch %d — %d tenants relocated, %s of spine streaming",
		drainRack, drainAt, drainMoved, drainCost)
	if c.MigrationTime.Count() > 0 {
		r.Linef("migration cost: %v per move (n=%d)",
			sim.Duration(c.MigrationTime.Percentile(50)), c.MigrationTime.Count())
	}
	r.Linef("spilled-tenant penalty: +%v per op while remote", c.RemotePenalty(0, 1))
	// CounterSet feeds the structured report directly: placements and
	// per-destination migration tallies land as scalars (JSON/CSV only).
	local.AppendScalars(r, "placements.local.")
	spill.AppendScalars(r, "placements.spill.")
	mig.AppendScalars(r, "migrations.")
	r.AddScalar("drain.tenants_relocated", float64(drainMoved), "tenants")
	// Failure-domain reliability, from the §5 torless analysis of one
	// rack's design (analytic closed forms).
	rs, err := torless.Analyze(torless.Config{
		PodSize:    spec.Hosts,
		PooledNICs: spec.Devices(),
		Probs:      torless.DefaultFailureProbs(),
		Trials:     1, // analytic columns only; skip the expensive MC
		Seed:       p.Seed(),
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rs {
		if row.Design == torless.ToRLess {
			r.Linef("failure domains: %d racks; per-rack outage (ToR-less pod, analytic) %.6f",
				nDomains, row.RackOutageAnalytic)
			r.AddScalar("rack_outage_analytic", row.RackOutageAnalytic, "")
		}
	}
	// Per-domain availability (machine-facing; the text line above
	// keeps the uniform-rack summary).
	for _, d := range c.Availability(torless.DefaultFailureProbs()) {
		r.AddScalar("outage."+d.Name, d.Outage, "")
	}
	r.Blank()

	// Pooling-benefit curve: goodput of the tenants homed in whichever
	// rack is hot, as the cluster grows. Isolated racks pin hot tenants
	// to their overloaded home; federation gives them the fleet.
	r.Line("pooling benefit at rack scale (hot-rack tenant goodput, 4 epochs):")
	// The sweep varies exactly one thing — the number of racks pooled —
	// so its sub-clusters are always the uniform single-row shape,
	// whatever topology the main run used (a cloned -rows could
	// otherwise exceed the smallest sub-cluster's rack count).
	var points []benefitPoint
	for _, n := range []int{2, 3, 4, 6, 8} {
		points = append(points, benefitPoint{report.Num(float64(n), "%d", n), float64(n),
			[]any{"racks", n, "topo", "uniform"}})
	}
	if err := addPoolingBenefit(r, p, workers, report.NumCol("racks"),
		report.Series{Name: "pooling_benefit_vs_racks", XLabel: "racks"}, points); err != nil {
		return nil, err
	}
	r.Line("(isolated racks strand remote slack exactly like unpooled PCIe devices strand NICs)")
	return r, nil
}
