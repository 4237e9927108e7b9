package experiments

import (
	"context"
	"fmt"
	"os"
	"strings"

	"cxlpool/internal/churn"
	"cxlpool/internal/cluster"
	"cxlpool/internal/params"
	"cxlpool/internal/report"
	"cxlpool/internal/sim"
	"cxlpool/internal/workload"
)

// churnParamSpecs is the E17 parameter surface: fleet size, horizon,
// and the composable workload knobs — arrival process, lifetime
// distribution, diurnal swing — plus the trace pair that makes any
// generated schedule a reproducible artifact (record it, replay it).
func churnParamSpecs() []params.Spec {
	return []params.Spec{
		{Name: "racks", Kind: params.Int, Def: "4", Min: 2, Max: 64, Bounded: true,
			Help: "rack count (uniform single-row fleet)"},
		{Name: "epochs", Kind: params.Int, Def: "20", Min: 4, Max: 2000, Bounded: true,
			Help: "epochs to simulate (extended to cover a longer replayed trace)"},
		{Name: "arrivals", Kind: params.String, Def: "poisson",
			Enum: []string{"poisson", "bursty"},
			Help: "arrival process: seeded poisson or burst-modulated poisson"},
		{Name: "rate", Kind: params.Float, Def: "6",
			Help: "mean tenant arrivals per epoch (before diurnal/burst modulation)"},
		{Name: "lifetime", Kind: params.String, Def: "geometric",
			Enum: []string{"geometric", "pareto"},
			Help: "tenant lifetime distribution: memoryless or heavy-tailed"},
		{Name: "life", Kind: params.Float, Def: "8",
			Help: "mean tenant lifetime, epochs"},
		{Name: "diurnal", Kind: params.Float, Def: "0",
			Help: "diurnal amplitude in 0..1: arrival rate swings by this fraction over the day"},
		{Name: "period", Kind: params.Int, Def: "12", Min: 2, Max: 1000, Bounded: true,
			Help: "diurnal period, epochs per simulated day"},
		{Name: "trace", Kind: params.String, Def: "",
			Help: "replay this trace file instead of generating (workload knobs above are ignored)"},
		{Name: "record", Kind: params.String, Def: "",
			Help: "write the generated schedule to this file for later -trace replay"},
		workersSpec(),
	}
}

// churnTraceFromParams resolves the schedule: a checked-in trace file
// when -trace is set, else a freshly generated one from the workload
// knobs. Both paths return the same canonical *churn.Trace, so the
// simulation downstream cannot tell generated from replayed.
func churnTraceFromParams(p *params.Set) (*churn.Trace, error) {
	if path := p.Str("trace"); path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn -trace: %w", err)
		}
		tr, err := churn.ParseTrace(data)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn -trace %s: %w", path, err)
		}
		return tr, nil
	}
	ak, err := churn.ParseArrivalKind(p.Str("arrivals"))
	if err != nil {
		return nil, err
	}
	lk, err := churn.ParseLifetimeKind(p.Str("lifetime"))
	if err != nil {
		return nil, err
	}
	return churn.Generate(churn.GenConfig{
		Epochs:        p.Int("epochs"),
		Racks:         p.Int("racks"),
		Arrivals:      ak,
		Rate:          p.Float("rate"),
		Lifetime:      lk,
		MeanLife:      p.Float("life"),
		Diurnal:       p.Float("diurnal"),
		DiurnalPeriod: p.Int("period"),
		Seed:          p.Seed(),
	})
}

// runChurn is E17: tenant churn against the split control plane. The
// schedule — generated or replayed — drives arrivals and departures
// through the admission fast path (cached per-rack headroom, local
// first, at most one spill probe) while the background reconciler
// (rebalance, repatriate, drain, warm-pool autoscaling) keeps the
// summaries honest between heartbeats. The report's body is derived
// only from the trace and the simulation it drives, so replaying a
// recorded schedule reproduces a generated run's text byte for byte.
func runChurn(_ context.Context, p *params.Set) (*report.Report, error) {
	tr, err := churnTraceFromParams(p)
	if err != nil {
		return nil, err
	}
	if path := p.Str("record"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn -record: %w", err)
		}
		if err := churn.WriteTrace(f, tr); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	epochs := p.Int("epochs")
	if h := tr.Horizon(); h > epochs {
		epochs = h
	}
	base, err := fleetConfig(p)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(p.Int("racks")); err != nil {
		return nil, err
	}
	cfg := base
	cfg.Federate = true
	cfg.Autoscale = true
	cfg.Churn = tr
	// Flat ambient demand: the schedule is the workload, so the skew
	// rotation that drives E14–E16 is pinned to 1x here.
	cfg.Skew = workload.RackSkew{HotFactor: 1, Period: 1}
	// Short epochs, as in E16: churn needs many heartbeats, and the
	// admission-latency scalars are measured in simulated microseconds.
	cfg.Epoch = 500 * sim.Microsecond
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	cfg = c.Config()
	t := cfg.Topo

	ts := tr.Stats()
	r := newReport("churn", p)
	r.Linef("E17: tenant churn & admission — %v, %d epochs of %v", t, epochs, cfg.Epoch)
	r.Linef("schedule: %d arrivals, %d departures over %d epochs — peak %d live, mean demand %.1f Gbps",
		ts.Arrivals, ts.Departures, tr.Horizon(), ts.PeakLive, ts.MeanGbps)
	r.Line("admission: cached headroom, local-first, one spill probe; reconciler: sweep + warm-pool autoscale")
	r.Blank()

	// Epoch loop. Latency percentiles are per-epoch simulated-time
	// figures (0 when the epoch admitted nothing); occupancy and churn
	// rate feed the machine-facing series.
	et := r.AddTable("epochs",
		report.NumCol("epoch"), report.NumCol("arr"), report.NumCol("dep"),
		report.NumCol("adm"), report.NumCol("rej"), report.NumCol("rty"),
		report.NumCol("live"), report.NumCol("warm+"), report.NumCol("warm-"),
		report.NumCol("p50 us"), report.NumCol("p99 us"),
		report.StrCol("off>del Gbps"))
	occupancy := report.Series{Name: "occupancy_vs_epoch", XLabel: "epoch", YLabel: "live tenants"}
	churnRate := report.Series{Name: "churn_rate_vs_epoch", XLabel: "epoch", YLabel: "arrivals+departures"}
	stats, err := c.Run(epochs)
	if err != nil {
		return nil, err
	}
	for e, st := range stats {
		off, del := fleetGbps(st)
		occupancy.Points = append(occupancy.Points, [2]float64{float64(e), float64(st.Live)})
		churnRate.Points = append(churnRate.Points,
			[2]float64{float64(e), float64(st.Arrivals + st.Departures)})
		et.Row(report.Num(float64(st.Epoch), "%d", st.Epoch),
			report.Num(float64(st.Arrivals), "%d", st.Arrivals),
			report.Num(float64(st.Departures), "%d", st.Departures),
			report.Num(float64(st.Admitted), "%d", st.Admitted),
			report.Num(float64(st.Rejected), "%d", st.Rejected),
			report.Num(float64(st.Retried), "%d", st.Retried),
			report.Num(float64(st.Live), "%d", st.Live),
			report.Num(float64(st.WarmGrow), "%d", st.WarmGrow),
			report.Num(float64(st.WarmShrink), "%d", st.WarmShrink),
			report.Num(st.AdmitP50/1e3, "%.2f"),
			report.Num(st.AdmitP99/1e3, "%.2f"),
			report.Strf("%4.0f>%4.0f", off, del))
	}
	r.AddSeries(occupancy)
	r.AddSeries(churnRate)
	r.Blank()

	// The admission ledger: every attempt ends admitted, typed-rejected
	// (and retried next heartbeat), or abandoned (departed while
	// waiting). The reject table always shows all reasons, zeros
	// included, so sweeps diff cleanly.
	tot := c.AdmissionTotals()
	rt := r.AddTable("rejects", report.StrCol("reason"), report.NumCol("count"))
	for _, reason := range cluster.RejectReasons() {
		n := c.RejectCount(reason)
		rt.Row(report.Str(reason.String()), report.Num(float64(n), "%d", n))
		key := strings.ReplaceAll(reason.String(), "-", "_")
		r.AddScalar("reject."+key, float64(n), "")
	}
	r.Linef("retries: %d re-attempts across epochs; %d admissions abandoned (departed while waiting)",
		tot.Retried, tot.Abandoned)
	r.Blank()

	// Warm-pool autoscaling: slots pre-bound by the reconciler so the
	// fast path skips the cold bind. End state is per-rack.
	at := r.AddTable("autoscale", report.StrCol("rack"), report.NumCol("warm end"))
	for _, rk := range c.Racks() {
		at.Row(report.Str(rk.Name), report.Num(float64(rk.WarmSlots()), "%d", rk.WarmSlots()))
	}
	r.Linef("autoscale: %d warm grows, %d shrinks (cap %d slots/rack)",
		tot.WarmGrows, tot.WarmShrinks, cluster.WarmSlotCap)
	r.Blank()

	// Headline scalars: admission throughput over simulated time and
	// the run-wide latency tail.
	lat := c.AdmissionLatency()
	simSecs := float64(epochs) * cfg.Epoch.Seconds()
	perSec := float64(tot.Admitted) / simSecs
	p50 := lat.Percentile(50) / 1e3
	p95 := lat.Percentile(95) / 1e3
	p99 := lat.Percentile(99) / 1e3
	r.Linef("admissions: %d over %.1f ms simulated — %.0f/sec; latency p50 %.2f us, p95 %.2f us, p99 %.2f us",
		tot.Admitted, simSecs*1e3, perSec, p50, p95, p99)
	r.Linef("occupancy: peak %d live, %d at horizon end", ts.PeakLive, tot.Live)
	r.AddScalar("admissions.per_sec", perSec, "")
	r.AddScalar("admit_latency.p50_us", p50, "us")
	r.AddScalar("admit_latency.p95_us", p95, "us")
	r.AddScalar("admit_latency.p99_us", p99, "us")
	r.AddScalar("admissions.total", float64(tot.Admitted), "")
	r.AddScalar("rejects.total", float64(tot.Rejected), "")
	r.AddScalar("retries.total", float64(tot.Retried), "")
	r.AddScalar("abandoned.total", float64(tot.Abandoned), "")
	r.AddScalar("occupancy.peak", float64(ts.PeakLive), "")
	r.AddScalar("occupancy.end", float64(tot.Live), "")
	r.AddScalar("autoscale.grows", float64(tot.WarmGrows), "")
	r.AddScalar("autoscale.shrinks", float64(tot.WarmShrinks), "")
	return r, nil
}
