package experiments

import (
	"context"
	"fmt"

	"cxlpool/internal/cluster"
	"cxlpool/internal/params"
	"cxlpool/internal/report"
	"cxlpool/internal/sim"
)

// oversubParamSpecs is the E18 parameter surface: the E14 fleet shape
// plus the spine oversubscription ratio the study sweeps.
func oversubParamSpecs() []params.Spec {
	return append(rowSpecs("6"),
		params.Spec{Name: "ratio", Kind: params.Float, Def: "4",
			Help: "spine oversubscription ratio for the main run: uplink capacity = pooled aggregate / ratio (0 = non-blocking)"},
		params.Spec{Name: "epochs", Kind: params.Int, Def: "6", Min: 1, Max: 64, Bounded: true,
			Help: "epochs to simulate in the main run"},
		params.Spec{Name: "workers", Kind: params.Int, Def: "0", Min: 0, Max: 1024, Bounded: true,
			Help: "parallel workers for the ratio sweep (0 = GOMAXPROCS, 1 = sequential)"},
	)
}

// runOversub is E18: the pooling argument under a fabric that pushes
// back. The E14 fleet absorbs the same rotating hotspot, but every
// inter-rack uplink now has finite capacity (pooled aggregate beneath
// the edge over the oversubscription ratio), so concurrent spills into
// one uplink contend: spilled tenants are granted a proportional fair
// share of the links they cross, migrations and drain streams queue
// FIFO behind each other, and placement ranks targets by residual link
// capacity before hops and pressure. The main run reports per-epoch
// spine state and a per-uplink utilization/queueing table; the closing
// sweep is the headline — pooling benefit vs oversubscription ratio,
// 1:1 (full bisection) to 8:1, against the non-blocking reference.
func runOversub(_ context.Context, p *params.Set) (*report.Report, error) {
	racks, workers, epochs := p.Int("racks"), p.Int("workers"), p.Int("epochs")
	ratio := p.Float("ratio")
	if racks < 2 {
		return nil, fmt.Errorf("experiments: oversub needs >= 2 racks, got %d", racks)
	}
	if !(ratio >= 0 && ratio <= 64) {
		return nil, fmt.Errorf("experiments: oversub ratio must be in [0,64], got %g", ratio)
	}
	base, err := fleetConfig(p)
	if err != nil {
		return nil, err
	}
	cfg := clusterShape(base, true)
	cfg.Epoch = sim.Millisecond
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	eff := c.Config()
	nDomains := len(c.Racks())
	r := newReport("oversub", p)
	r.Linef("E18: spine oversubscription — %d racks / %d rows, %d tenants/rack, %gx rotating hotspot",
		nDomains, eff.Topo.RowCount(), eff.TenantsPerRack, eff.Skew.HotFactor)
	if ratio > 0 {
		r.Linef("spine: ratio %g:1 — uplink capacity = pooled aggregate beneath the edge / %g, spilled flows share it",
			ratio, ratio)
	} else {
		r.Line("spine: non-blocking (ratio 0) — analytic path costs, no contention")
	}
	r.Blank()

	et := r.AddTable("epochs",
		report.NumCol("epoch"), report.StrCol("hot"),
		report.NumCol("xmig"), report.NumCol("throttled"),
		report.NumCol("max util"), report.NumCol("queued Gbps"),
		report.StrCol("fleet off>del Gbps"))
	stats, err := c.Run(epochs)
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		off, del := fleetGbps(st)
		et.Row(
			report.Num(float64(st.Epoch), "%d", st.Epoch),
			report.Strf("rack%d", st.HotRack),
			report.Num(float64(st.Migrations), "%d", st.Migrations),
			report.Num(float64(st.SpineThrottled), "%d", st.SpineThrottled),
			report.Num(st.SpineMaxUtil, "%.2f"),
			report.Num(st.SpineQueuedGbps, "%.0f"),
			report.Strf("%4.0f>%4.0f", off, del),
		)
	}
	r.Blank()

	// Per-uplink accounting: the fluid (steady spill demand) and
	// discrete (migration/drain stream) sides of every inter-rack edge.
	lt := r.AddTable("uplinks",
		report.StrCol("uplink"), report.StrCol("cap Gbps"),
		report.NumCol("mean util"), report.NumCol("peak util"),
		report.NumCol("peak queued Gbps"), report.NumCol("xfers"),
		report.StrCol("xfer wait"))
	for _, l := range c.SpineLinks() {
		capCell := report.Str("inf")
		if l.CapGbps > 0 {
			capCell = report.Strf("%.0f", l.CapGbps)
		}
		lt.Row(
			report.Str(l.Name), capCell,
			report.Num(l.MeanUtil, "%.2f"), report.Num(l.PeakUtil, "%.2f"),
			report.Num(l.PeakQueuedGbps, "%.0f"),
			report.Num(float64(l.Transfers), "%d", l.Transfers),
			report.Str(l.WaitTotal.String()),
		)
		r.AddScalar("uplink."+l.Name+".peak_util", l.PeakUtil, "")
	}
	if c.MigrationTime.Count() > 0 {
		r.Linef("migration cost incl. spine queueing: %v per move (n=%d)",
			sim.Duration(c.MigrationTime.Percentile(50)), c.MigrationTime.Count())
	}
	r.Blank()

	// Headline: pooling benefit vs oversubscription ratio. The isolated
	// baseline never touches the spine (tenants stay home), so it is
	// computed once; each federated point pays the ratio's contention.
	r.Line("pooling benefit vs oversubscription (hot-rack tenant goodput, 4 epochs):")
	var points []benefitPoint
	for _, rt := range []float64{0, 1, 2, 4, 8} {
		label := fmt.Sprintf("%g:1", rt)
		if rt == 0 {
			label = "non-blocking"
		}
		points = append(points, benefitPoint{report.Str(label), rt, []any{"ratio", rt}})
	}
	if err := addPoolingBenefit(r, p, workers, report.StrCol("oversub"),
		report.Series{Name: "pooling_benefit_vs_oversub", XLabel: "oversubscription ratio"}, points); err != nil {
		return nil, err
	}
	r.Line("(full bisection keeps the federation benefit; oversubscription hands it back link by link)")
	return r, nil
}
