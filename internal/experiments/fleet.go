package experiments

import (
	"fmt"

	"cxlpool/internal/cluster"
	"cxlpool/internal/params"
	"cxlpool/internal/report"
	"cxlpool/internal/runner"
	"cxlpool/internal/sim"
	"cxlpool/internal/topo"
	"cxlpool/internal/workload"
)

// rowSpecs declares the multi-row fleet shape E15 and E18 share: a
// rack count with the given default, split contiguously across rows,
// and the odd-rack heterogeneity profile.
func rowSpecs(racks string) []params.Spec {
	return []params.Spec{
		{Name: "racks", Kind: params.Int, Def: racks, Min: 2, Max: 64, Bounded: true,
			Help: "total rack count (split contiguously across rows)"},
		{Name: "rows", Kind: params.Int, Def: "2", Min: 1, Max: 16, Bounded: true,
			Help: "row count (a row is one spine domain of racks)"},
		{Name: "het", Kind: params.String, Def: "none",
			Enum: topo.HetProfiles(),
			Help: "rack heterogeneity profile (odd racks differ)"},
	}
}

// workersSpec declares the rack-simulation worker knob.
func workersSpec() params.Spec {
	return params.Spec{Name: "workers", Kind: params.Int, Def: "0", Min: 0, Max: 1024, Bounded: true,
		Help: "parallel rack simulation workers (0 = GOMAXPROCS, 1 = sequential)"}
}

// fleetConfig maps a validated fleet parameter set onto a
// cluster.Config, building the topology from whichever of the
// racks/rows/topo/het knobs the surface declares (undeclared ones take
// uniform defaults). Shape knobs no surface exposes (tenants per rack,
// skew) stay at their zero values for the caller to fill before
// cluster.New.
func fleetConfig(p *params.Set) (cluster.Config, error) {
	racks := p.Int("racks")
	rows, het := 1, "none"
	if p.Has("rows") {
		rows = p.Int("rows")
	}
	if p.Has("het") {
		het = p.Str("het")
	}
	if p.Has("topo") {
		// The preset gates the other knobs so `-topo uniform` is always
		// the legacy single-row fleet regardless of stale -rows/-het.
		switch p.Str("topo") {
		case "uniform":
			rows, het = 1, "none"
		case "multirow":
			het = "none"
		}
	}
	t, err := topo.Preset(racks, rows, het)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.Config{
		Topo:    t,
		Workers: p.Int("workers"),
		Seed:    p.Seed(),
	}
	// Only surfaces that declare a ratio knob (the oversub scenario) get
	// a finite spine; everything else keeps the non-blocking default.
	if p.Has("ratio") {
		cfg.Oversub = p.Float("ratio")
	}
	return cfg, nil
}

// clusterShape fills the shared E14 shape onto a params-derived config:
// 200 Gbps racks (the topology default — two pooled 100G NICs each),
// six tenants per rack, 12x hotspot dwelling two epochs per rack —
// hot-rack demand (~390 Gbps offered) overruns one rack but fits the
// cluster.
func clusterShape(cfg cluster.Config, federate bool) cluster.Config {
	cfg.TenantsPerRack = 6
	cfg.Federate = federate
	cfg.Skew = workload.RackSkew{HotFactor: 12, Period: 2}
	return cfg
}

// drainAt and drainRack place E14/E15's maintenance drain: rack 1
// drains between epochs 2 and 3 of a six-epoch run.
const drainAt, drainRack = 3, 1

// drainedRun runs c for 2*drainAt epochs with drainRack drained at
// epoch drainAt, returning every epoch's stats plus the drain's
// relocated-tenant count and streaming cost.
func drainedRun(c *cluster.Cluster) ([]cluster.EpochStats, int, sim.Duration, error) {
	stats, err := c.Run(drainAt)
	if err != nil {
		return nil, 0, 0, err
	}
	moved, cost, err := c.DrainRack(drainRack)
	if err != nil {
		return nil, 0, 0, err
	}
	rest, err := c.Run(drainAt)
	if err != nil {
		return nil, 0, 0, err
	}
	return append(stats, rest...), moved, cost, nil
}

// fleetGbps sums one epoch's offered and delivered Gbps over the fleet,
// in rack order.
func fleetGbps(st cluster.EpochStats) (off, del float64) {
	for i := range st.OfferedGbps {
		off += st.OfferedGbps[i]
		del += st.DeliveredGbps[i]
	}
	return off, del
}

// hotGoodput runs a fresh E14-shaped fleet, the main run's parameters
// with the given name/value overrides, for four epochs and returns
// delivered/offered for the tenants homed in the racks the hotspot
// visits. Isolated racks queue hot traffic behind their two saturated
// NICs; federation hands the excess to remote racks' idle devices.
// Sub-clusters simulate their racks sequentially: the sweeps that call
// this already run their points in parallel.
func hotGoodput(p *params.Set, federate bool, overrides ...any) (float64, error) {
	pp := p.Clone()
	if err := pp.Set("workers", "1"); err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(overrides); i += 2 {
		if err := pp.Set(fmt.Sprint(overrides[i]), fmt.Sprint(overrides[i+1])); err != nil {
			return 0, err
		}
	}
	base, err := fleetConfig(pp)
	if err != nil {
		return 0, err
	}
	cfg := clusterShape(base, federate)
	// Half-length epochs: the sweeps need ratios, not long steady
	// state, and each runs several clusters.
	cfg.Epoch = sim.Millisecond
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, err
	}
	const epochs = 4
	hotHomes := map[int]bool{}
	sk := c.Config().Skew
	for e := 0; e < epochs; e++ {
		hotHomes[sk.HotRack(e)] = true
	}
	if _, err := c.Run(epochs); err != nil {
		return 0, err
	}
	var offered, delivered uint64
	for _, t := range c.Tenants() {
		if hotHomes[t.Home] {
			o, _ := t.Traffic()
			offered += o
			delivered += c.Delivered(t)
		}
	}
	if offered == 0 {
		return 0, fmt.Errorf("experiments: hot tenants offered no traffic")
	}
	return float64(delivered) / float64(offered), nil
}

// benefitPoint is one federated point of a pooling-benefit sweep: its
// table cell, its series abscissa and its hotGoodput overrides.
type benefitPoint struct {
	label     report.Cell
	x         float64
	overrides []any
}

// addPoolingBenefit closes E14 and E18 with the pooling_benefit table
// and series: one federated hotGoodput per point against one isolated
// baseline, run at the first point. Isolated racks never exchange
// tenants or spine traffic, and the four-epoch hotspot visits only
// racks 0 and 1, so the baseline does not depend on the swept rack
// count or spine ratio, and one run serves every row.
func addPoolingBenefit(r *report.Report, p *params.Set, workers int,
	xCol report.Column, series report.Series, points []benefitPoint) error {
	// Task i < len(points) is the federated run at points[i]; the last
	// task is the isolated baseline, at points[0].
	g := make([]float64, len(points)+1)
	if err := (runner.Pool{Workers: workers}).ForEach(len(g), func(i int) (err error) {
		g[i], err = hotGoodput(p, i < len(points), points[i%len(points)].overrides...)
		return err
	}); err != nil {
		return err
	}
	base := g[len(points)]
	bt := r.AddTable("pooling_benefit", xCol, report.NumCol("isolated racks"),
		report.NumCol("federated"), report.NumCol("benefit"))
	series.YLabel = "federated/isolated goodput"
	for i, pt := range points {
		bt.Row(pt.label, report.Num(base*100, "%.0f%%"),
			report.Num(g[i]*100, "%.0f%%"), report.Num(g[i]/base, "%.2fx"))
		series.Points = append(series.Points, [2]float64{pt.x, g[i] / base})
	}
	r.AddSeries(series)
	return nil
}
