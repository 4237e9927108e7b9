package experiments

import (
	"context"
	"fmt"

	"cxlpool/internal/cluster"
	"cxlpool/internal/params"
	"cxlpool/internal/report"
	"cxlpool/internal/sim"
	"cxlpool/internal/torless"
)

// multirowParamSpecs is the E15 parameter surface: the E14 knobs with
// multi-row defaults and no preset indirection.
func multirowParamSpecs() []params.Spec {
	return append(rowSpecs("8"), workersSpec())
}

// runMultiRow is E15: the declarative topology API exercised at fleet
// shape. A multi-row (optionally heterogeneous) cluster absorbs the
// same rotating hotspot as E14, but placement now ranks spill targets
// by path hops — same-row racks before cross-row ones — and every
// migration, drain stream, and spill penalty is charged by path
// aggregation over the topology tree instead of one fixed spine tier.
// The report closes with torless-fed per-domain availability: each
// rack's outage from its own hardware spec, aggregated up rows to the
// cluster root.
func runMultiRow(_ context.Context, p *params.Set) (*report.Report, error) {
	racks, rows := p.Int("racks"), p.Int("rows")
	if racks < 2 {
		return nil, fmt.Errorf("experiments: multirow needs >= 2 racks, got %d", racks)
	}
	base, err := fleetConfig(p)
	if err != nil {
		return nil, err
	}
	cfg := clusterShape(base, true)
	// Half-length epochs: the fleet is twice E14's default size.
	cfg.Epoch = sim.Millisecond
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	cfg = c.Config()
	t := cfg.Topo
	r := newReport("multirow", p)
	r.Linef("E15: multi-row fleet — %v (heterogeneity: %s), %d tenants/rack, %gx rotating hotspot",
		t, p.Str("het"), cfg.TenantsPerRack, cfg.Skew.HotFactor)

	// Fabric tiers by path aggregation: the same-row pair (when one
	// exists) and the cross-row pair (when rows > 1).
	sameRowPeer, crossRowPeer := -1, -1
	for j := 1; j < t.RackCount(); j++ {
		if t.SameRow(0, j) && sameRowPeer < 0 {
			sameRowPeer = j
		}
		if !t.SameRow(0, j) && crossRowPeer < 0 {
			crossRowPeer = j
		}
	}
	fabric := fmt.Sprintf("fabric: %v", c.IntraRackTier())
	for _, j := range []int{sameRowPeer, crossRowPeer} {
		if j > 0 {
			fabric += fmt.Sprintf("; %v (%d hops, migration %v)",
				c.InterRackTier(0, j), t.RackPath(0, j).Hops, c.MigrationCost(0, j))
		}
	}
	r.Line(fabric)
	r.Blank()

	// Rack hardware, one row per rack — heterogeneous fleets show their
	// mixed specs here.
	rt := r.AddTable("racks",
		report.StrCol("rack"), report.StrCol("row"), report.NumCol("hosts"),
		report.NumCol("devices"), report.NumCol("nic Gbps"), report.NumCol("capacity Gbps"))
	for i, d := range t.Racks() {
		rt.Row(report.Str(d.Name), report.Strf("row%d", t.RowOf(i)),
			report.Num(float64(d.Spec.Hosts), "%d", d.Spec.Hosts),
			report.Num(float64(d.Spec.Devices()), "%d", d.Spec.Devices()),
			report.Num(d.Spec.NICGbps, "%.0f"),
			report.Num(d.Spec.CapacityGbps(), "%.0f"))
		r.AddScalar(fmt.Sprintf("capacity_gbps.%s", d.Name), d.Spec.CapacityGbps(), "Gbps")
	}
	r.Blank()

	// Epoch loop with a mid-run rack drain, reported per row (per-rack
	// columns would not fit an 8-rack fleet).
	cols := []report.Column{
		report.NumCol("epoch"), report.StrCol("hot"),
		report.StrCol("mig s/x"), report.NumCol("rep"),
	}
	for i := 0; i < t.RowCount(); i++ {
		cols = append(cols, report.StrCol(fmt.Sprintf("row%d off>del Gbps", i)))
	}
	et := r.AddTable("epochs", cols...)
	stats, drainMoved, drainCost, err := drainedRun(c)
	if err != nil {
		return nil, err
	}
	var offered, delivered float64
	for e, st := range stats {
		row := []report.Cell{
			report.Num(float64(st.Epoch), "%d", st.Epoch),
			report.Strf("rack%d", st.HotRack),
			report.Strf("%d/%d", st.MigSameRow, st.MigCrossRow),
			report.Num(float64(st.Repatriations), "%d", st.Repatriations),
		}
		for ri := 0; ri < t.RowCount(); ri++ {
			var off, del, rowCap float64
			for i := range c.Racks() {
				if t.RowOf(i) != ri {
					continue
				}
				off += st.OfferedGbps[i]
				del += st.DeliveredGbps[i]
				if !(i == drainRack && e >= drainAt) {
					rowCap += t.Rack(i).Spec.CapacityGbps()
				}
			}
			p := 0.0
			if rowCap > 0 {
				p = off / rowCap
			}
			row = append(row, report.Strf("%4.0f>%4.0f (p=%.2f)", off, del, p))
		}
		et.Row(row...)
		// Run-wide totals add rack by rack, not fleetGbps's epoch sums:
		// testdata/multirow_seed7.json pins this summation order.
		for i := range c.Racks() {
			offered += st.OfferedGbps[i]
			delivered += st.DeliveredGbps[i]
		}
	}
	r.Blank()

	local, spill, mig, _ := c.Counters()
	same, cross := c.RowMigrations()
	r.Linef("placements: local=%d spill=%d | migrations: same-row=%d cross-row=%d (per-rack out: %s)",
		local.Total(), spill.Total(), same, cross, mig.String())
	r.Linef("rack drain: rack%d at epoch %d — %d tenants relocated, %v of path streaming (same-row targets preferred)",
		drainRack, drainAt, drainMoved, drainCost)
	if sameRowPeer > 0 {
		pen := fmt.Sprintf("spilled-tenant penalty: same-row +%v", c.RemotePenalty(0, sameRowPeer))
		if crossRowPeer > 0 {
			pen += fmt.Sprintf(", cross-row +%v", c.RemotePenalty(0, crossRowPeer))
		}
		r.Line(pen + " per op while remote")
	}
	goodput := 0.0
	if offered > 0 {
		goodput = delivered / offered
	}
	r.Linef("fleet goodput under hotspot: %.0f%% of offered", goodput*100)
	r.AddScalar("migrations.same_row", float64(same), "")
	r.AddScalar("migrations.cross_row", float64(cross), "")
	r.AddScalar("placements.local", float64(local.Total()), "")
	r.AddScalar("placements.spill", float64(spill.Total()), "")
	r.AddScalar("drain.tenants_relocated", float64(drainMoved), "tenants")
	r.AddScalar("goodput_fraction", goodput, "")
	r.AddScalar("rows", float64(rows), "")
	r.Blank()

	// Per-domain availability: each rack's ToR-less outage from its own
	// spec, aggregated up the tree (a domain is out when every rack in
	// it is out simultaneously).
	r.Line("availability (torless-fed, analytic, whole-domain outage):")
	at := r.AddTable("availability",
		report.StrCol("domain"), report.StrCol("kind"), report.NumCol("outage"))
	for _, d := range c.Availability(torless.DefaultFailureProbs()) {
		at.Row(report.Str(d.Name), report.Str(d.Kind.String()),
			report.Num(d.Outage, "%.3g"))
		r.AddScalar("outage."+d.Name, d.Outage, "")
	}
	return r, nil
}
