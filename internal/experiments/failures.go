package experiments

import (
	"context"
	"fmt"

	"cxlpool/internal/cluster"
	"cxlpool/internal/faults"
	"cxlpool/internal/params"
	"cxlpool/internal/report"
	"cxlpool/internal/sim"
	"cxlpool/internal/torless"
)

// failuresParamSpecs is the E16 parameter surface: fleet shape, fault
// class and schedule source, remediation policy toggle — every axis
// sweepable through the standard sweep driver.
func failuresParamSpecs() []params.Spec {
	classes := make([]string, 0, faults.ClassCount+1)
	for _, c := range faults.Classes() {
		classes = append(classes, c.String())
	}
	classes = append(classes, "mix")
	return []params.Spec{
		{Name: "racks", Kind: params.Int, Def: "6", Min: 2, Max: 64, Bounded: true,
			Help: "rack count (split contiguously across rows)"},
		{Name: "rows", Kind: params.Int, Def: "2", Min: 1, Max: 16, Bounded: true,
			Help: "row count (a row is one spine domain)"},
		{Name: "epochs", Kind: params.Int, Def: "12", Min: 4, Max: 500, Bounded: true,
			Help: "epochs to simulate"},
		{Name: "class", Kind: params.String, Def: "rackkill", Enum: classes,
			Help: "fault class to inject (mix = every class)"},
		{Name: "domains", Kind: params.Int, Def: "2", Min: 1, Max: 64, Bounded: true,
			Help: "PDU span: adjacent racks per power domain (a pdufail kills the whole group)"},
		{Name: "crews", Kind: params.Int, Def: "0", Min: 0, Max: 64, Bounded: true,
			Help: "repair crews (0 = unlimited workforce, the instant-service baseline)"},
		{Name: "policy", Kind: params.String, Def: "on", Enum: []string{"on", "off"},
			Help: "remediation policy engine: on (default rules) or off (tolerate only)"},
		{Name: "sched", Kind: params.String, Def: "scripted",
			Enum: []string{"scripted", "random", "bernoulli"},
			Help: "schedule source: scripted storyline, seeded random, or per-rack bernoulli kills"},
		{Name: "rate", Kind: params.Float, Def: "0.3",
			Help: "random: expected strikes/epoch fleet-wide; bernoulli: per-rack per-epoch kill probability"},
		{Name: "duration", Kind: params.Int, Def: "3", Min: 1, Max: 50, Bounded: true,
			Help: "scripted fault duration / random max duration, epochs"},
		workersSpec(),
	}
}

// failureClasses resolves the class knob ("mix" = every class).
func failureClasses(name string) ([]faults.Class, error) {
	if name == "mix" {
		return faults.Classes(), nil
	}
	c, err := faults.ParseClass(name)
	if err != nil {
		return nil, err
	}
	return []faults.Class{c}, nil
}

// failureSchedule builds the fault schedule the knobs describe.
// Scripted storylines strike twice (once for row/brownout classes) at
// one-third and two-thirds of the horizon so the run shows fault,
// remediation, repair, and repatriation phases in one table; random and
// bernoulli schedules are materialized from the seed and then behave
// exactly like scripted ones.
func failureSchedule(p *params.Set, classes []faults.Class, pdus, hosts int) (*faults.Schedule, error) {
	racks, rows, epochs := p.Int("racks"), p.Int("rows"), p.Int("epochs")
	dur, rate := p.Int("duration"), p.Float("rate")
	switch p.Str("sched") {
	case "random":
		return faults.Random(faults.RandomConfig{
			Epochs: epochs, Racks: racks, Rows: rows, PDUs: pdus,
			HostsPerRack: hosts,
			Rate:         rate, Classes: classes,
			MinDuration: 1, MaxDuration: dur,
			Seed: p.Seed(),
		})
	case "bernoulli":
		// The memoryless single-rack-failure process: class is ignored —
		// this is the convergence harness for the rack-kill analytic.
		return faults.Bernoulli(epochs, racks, rate, p.Seed())
	}
	var events []faults.Event
	for _, c := range classes {
		at1, at2 := epochs/3, 2*epochs/3
		if len(classes) > 1 {
			// Mix storyline: stagger one event per class instead.
			k := int(c) + 1
			at1, at2 = k*epochs/(faults.ClassCount+1), -1
		}
		switch c {
		case faults.RowKill:
			events = append(events, faults.Event{Class: c, At: at1, Duration: dur, Row: 1 % rows})
		case faults.CRACFail:
			events = append(events, faults.Event{Class: c, At: at1, Duration: dur, Row: 1 % rows})
		case faults.PDUFail:
			events = append(events, faults.Event{Class: c, At: at1, Duration: dur, PDU: 1 % pdus})
			if at2 > at1 {
				events = append(events, faults.Event{Class: c, At: at2, Duration: dur,
					PDU: (1 + pdus/2) % pdus})
			}
		case faults.HostKill:
			events = append(events, faults.Event{Class: c, At: at1, Duration: dur,
				Rack: 1, Host: 1})
			if at2 > at1 {
				events = append(events, faults.Event{Class: c, At: at2, Duration: dur,
					Rack: (1 + racks/2) % racks, Host: 1})
			}
		case faults.Brownout:
			events = append(events, faults.Event{Class: c, At: at1, Duration: dur,
				Src: 0, Dst: racks - 1, Severity: 0.3})
		default:
			events = append(events, faults.Event{Class: c, At: at1, Duration: dur,
				Rack: 1, Device: 1, Severity: 0.4})
			if at2 > at1 {
				events = append(events, faults.Event{Class: c, At: at2, Duration: dur,
					Rack: (1 + racks/2) % racks, Device: 1, Severity: 0.4})
			}
		}
	}
	return faults.Scripted(events...)
}

// runFailures is E16: the failure engine and the declarative
// remediation policy under the rotating-hotspot workload. A fleet rides
// out a fault schedule — scripted, random, or bernoulli — with the
// policy engine on or off, and the report closes the paper's
// failure-domain argument quantitatively: per-class tenant-visible
// MTTR, the goodput dip while faults are open, the policy's
// re-placement bill, and simulated availability against two analytic
// figures (the schedule's exact kill coverage and the torless per-rack
// outage closed form).
func runFailures(_ context.Context, p *params.Set) (*report.Report, error) {
	racks, epochs := p.Int("racks"), p.Int("epochs")
	rate := p.Float("rate")
	if !(rate >= 0 && rate <= float64(racks)) {
		return nil, fmt.Errorf("experiments: failures -rate %g outside 0..racks", rate)
	}
	classes, err := failureClasses(p.Str("class"))
	if err != nil {
		return nil, err
	}
	base, err := fleetConfig(p)
	if err != nil {
		return nil, err
	}
	// The power-domain overlay: -domains adjacent racks share one PDU.
	if base.Topo, err = base.Topo.WithPDUSpan(p.Int("domains")); err != nil {
		return nil, err
	}
	sched, err := failureSchedule(p, classes, base.Topo.PDUCount(), base.Topo.Rack(0).Spec.Hosts)
	if err != nil {
		return nil, err
	}
	cfg := clusterShape(base, true)
	// Short epochs: the scenario needs many heartbeats (strike,
	// detection, remediation, repair, repatriation), not long steady
	// state within each.
	cfg.Epoch = 500 * sim.Microsecond
	cfg.Faults = sched
	cfg.Crews = p.Int("crews")
	policyOn := p.Str("policy") == "on"

	// Headline: the remediation-throttle sweep. Same fleet, schedule,
	// and crews — only the evacuation rules' token bucket varies — so
	// the table is the availability-vs-re-placement-bill trade the rate
	// limiter buys: tighter limits spread the bill over more heartbeats
	// at the cost of longer exposure. The sections after it detail the
	// variant -policy names ("unlimited" is the default rules, "off" no
	// rules), so each configuration runs once.
	detail := "off"
	if policyOn {
		detail = "unlimited"
	}
	variants := policyVariants()
	outs := make([]policyOutcome, len(variants))
	var c *cluster.Cluster
	var stats []cluster.EpochStats
	for i, v := range variants {
		vc := cfg
		vc.Remediate = v.rules
		vcl, vstats, out, err := runPolicyVariant(vc, epochs)
		if err != nil {
			return nil, err
		}
		outs[i] = out
		if v.key == detail {
			c, stats = vcl, vstats
		}
	}
	cfg = c.Config()
	t := cfg.Topo

	r := newReport("failures", p)
	r.Linef("E16: failure injection & remediation — %v, %d tenants/rack, %gx rotating hotspot",
		t, cfg.TenantsPerRack, cfg.Skew.HotFactor)
	crewsDesc := "unlimited repair crews"
	if cfg.Crews > 0 {
		crewsDesc = fmt.Sprintf("repair crews: %d", cfg.Crews)
	}
	r.Linef("domains: %d PDUs (span %d), %d CRACs (one per row); %s",
		t.PDUCount(), t.PDUSpan(), t.CRACCount(), crewsDesc)
	r.Linef("schedule: %s/%s — %d events over %d epochs of %v; policy %s",
		p.Str("sched"), p.Str("class"), sched.Len(), epochs, cfg.Epoch, p.Str("policy"))
	if policyOn {
		for _, rule := range cfg.Remediate.Rules() {
			r.Linef("  rule: %s", rule)
		}
	}
	r.Blank()

	pt := r.AddTable("policy_sweep",
		report.StrCol("policy"), report.NumCol("availability"),
		report.NumCol("moves"), report.NumCol("downtime ms"), report.NumCol("throttled"))
	for i, v := range variants {
		out := outs[i]
		pt.Row(report.Str(v.name),
			report.Num(out.avail, "%.4f"),
			report.Num(float64(out.moves), "%d", out.moves),
			report.Num(out.downtimeMs, "%.3f"),
			report.Num(float64(out.throttled), "%d", out.throttled))
		r.AddScalar("sweep."+v.key+".availability", out.avail, "")
		r.AddScalar("sweep."+v.key+".moves", float64(out.moves), "")
	}
	r.Blank()

	// The schedule, as data (random runs show their draw here).
	if n := sched.Len(); n > 0 && n <= 24 {
		ft := r.AddTable("schedule",
			report.StrCol("fault"), report.StrCol("target"),
			report.NumCol("strike"), report.NumCol("repair"))
		for _, ev := range sched.Events() {
			ft.Row(report.Str(ev.Class.String()), report.Str(ev.Target()),
				report.Num(float64(ev.At), "%d", ev.At),
				report.Num(float64(ev.RepairAt()), "%d", ev.RepairAt()))
		}
		r.Blank()
	} else if n > 24 {
		r.Linef("(%d events; table elided)", n)
		r.Blank()
	}

	// Epoch loop. Goodput is fleet delivered/offered per epoch; the
	// fault-free epochs define the baseline the dip is measured from.
	et := r.AddTable("epochs",
		report.NumCol("epoch"), report.StrCol("hot"),
		report.NumCol("dead"), report.NumCol("faults"), report.NumCol("queue"),
		report.NumCol("acts"),
		report.NumCol("mig"), report.NumCol("rep"), report.NumCol("unpl"),
		report.StrCol("off>del Gbps"), report.NumCol("goodput"))
	goodput := report.Series{Name: "goodput_vs_epoch", XLabel: "epoch", YLabel: "delivered/offered"}
	queue := report.Series{Name: "queue_depth_vs_epoch", XLabel: "epoch", YLabel: "faults awaiting crew"}
	var baseSum, queueSum float64
	var baseN, totalActs, peakQueue int
	minGoodput := 1.0
	for e, st := range stats {
		off, del := fleetGbps(st)
		g := 0.0
		if off > 0 {
			g = del / off
		}
		totalActs += st.PolicyActions
		if st.RepairQueue > peakQueue {
			peakQueue = st.RepairQueue
		}
		queueSum += float64(st.RepairQueue)
		if st.FaultsActive == 0 && st.DeadRacks == 0 {
			baseSum += g
			baseN++
		} else if g < minGoodput {
			minGoodput = g
		}
		goodput.Points = append(goodput.Points, [2]float64{float64(e), g})
		queue.Points = append(queue.Points, [2]float64{float64(e), float64(st.RepairQueue)})
		et.Row(report.Num(float64(st.Epoch), "%d", st.Epoch),
			report.Strf("rack%d", st.HotRack),
			report.Num(float64(st.DeadRacks), "%d", st.DeadRacks),
			report.Num(float64(st.FaultsActive), "%d", st.FaultsActive),
			report.Num(float64(st.RepairQueue), "%d", st.RepairQueue),
			report.Num(float64(st.PolicyActions), "%d", st.PolicyActions),
			report.Num(float64(st.Migrations), "%d", st.Migrations),
			report.Num(float64(st.Repatriations), "%d", st.Repatriations),
			report.Num(float64(st.Unplaced), "%d", st.Unplaced),
			report.Strf("%4.0f>%4.0f", off, del),
			report.Num(g, "%.2f"))
	}
	r.AddSeries(goodput)
	r.AddSeries(queue)
	r.Blank()

	// Per-class MTTR: tenant-visible, in epochs and wall-clock, plus the
	// crew-queue wait — the part of the outage the finite workforce
	// added on top of the scheduled repair duration (zero with an
	// unlimited workforce, the instant-service baseline).
	mttr := c.MTTR()
	epochMs := cfg.Epoch.Seconds() * 1e3
	mt := r.AddTable("mttr",
		report.StrCol("class"), report.NumCol("faults"), report.NumCol("recovered"),
		report.NumCol("MTTR epochs"), report.NumCol("MTTR ms"), report.NumCol("wait epochs"))
	for _, cl := range faults.Classes() {
		injected := sched.Count(cl)
		if injected == 0 && mttr.Count(cl) == 0 {
			continue
		}
		me := mttr.MeanEpochs(cl)
		wait := mttr.MeanWaitEpochs(cl)
		mt.Row(report.Str(cl.String()),
			report.Num(float64(injected), "%d", injected),
			report.Num(float64(mttr.Count(cl)), "%d", mttr.Count(cl)),
			report.Num(me, "%.2f"),
			report.Num(me*epochMs, "%.2f"),
			report.Num(wait, "%.2f"))
		r.AddScalar("mttr."+cl.String()+".epochs", me, "epochs")
		r.AddScalar("mttr."+cl.String()+".ms", me*epochMs, "ms")
		r.AddScalar("mttr."+cl.String()+".wait_epochs", wait, "epochs")
		r.AddScalar("faults."+cl.String()+".count", float64(injected), "")
	}
	r.Blank()

	// Goodput dip and the policy engine's re-placement bill.
	baseline := 1.0
	if baseN > 0 {
		baseline = baseSum / float64(baseN)
	}
	dip := baseline - minGoodput
	if dip < 0 {
		dip = 0
	}
	moves, downtime := c.RemediationCost()
	r.Linef("goodput: baseline %.2f (over %d fault-free epochs), worst faulted epoch %.2f — dip %.2f",
		baseline, baseN, minGoodput, dip)
	r.Linef("remediation: %d tenant moves, %v re-placement downtime", moves, downtime)
	r.AddScalar("goodput.baseline", baseline, "")
	r.AddScalar("goodput.min", minGoodput, "")
	r.AddScalar("goodput.dip", dip, "")
	r.AddScalar("replacement.moves", float64(moves), "")
	r.AddScalar("replacement.downtime_ms", downtime.Seconds()*1e3, "ms")

	// Simulated vs analytic availability. The schedule's exact kill
	// coverage is the per-run analytic figure (the engine must match it
	// exactly); the torless closed form is the hardware-derived
	// reference the bernoulli convergence test feeds back in as -rate.
	dead, total := c.SimulatedRackOutage()
	simOut := 0.0
	if total > 0 {
		simOut = float64(dead) / float64(total)
	}
	schedOut := sched.KillFraction(epochs, racks, t.RowOf, t.PDUOf)
	torOut := torless.AnalyticRackOutage(torless.Config{
		PodSize:    t.Rack(0).Spec.Hosts,
		PooledNICs: t.Rack(0).Spec.Devices(),
		Probs:      torless.DefaultFailureProbs(),
	})
	r.Linef("availability: simulated rack outage %.4f (%d/%d rack-epochs dead), schedule analytic %.4f, torless per-rack %.6f",
		simOut, dead, total, schedOut, torOut)
	r.AddScalar("availability.simulated_outage", simOut, "")
	r.AddScalar("availability.schedule_analytic_outage", schedOut, "")
	r.AddScalar("availability.torless_rack_outage", torOut, "")
	r.AddScalar("availability.simulated", 1-simOut, "")
	r.AddScalar("policy.actions", float64(totalActs), "")
	r.AddScalar("policy.throttled", float64(c.ThrottledActions()), "")

	// Fleet-scope view: crews, queueing, and total wait — the numbers a
	// finite workforce stretches and an unlimited one holds at zero.
	r.Linef("repair: %s — peak queue %d, mean depth %.2f, %d fault-epochs waited",
		crewsDesc, peakQueue, queueSum/float64(epochs), mttr.TotalWaitEpochs())
	r.AddScalar("fleet.crews", float64(cfg.Crews), "")
	r.AddScalar("fleet.queue.peak", float64(peakQueue), "")
	r.AddScalar("fleet.queue.mean_depth", queueSum/float64(epochs), "")
	r.AddScalar("fleet.wait.total_epochs", float64(mttr.TotalWaitEpochs()), "epochs")
	return r, nil
}

// policyVariant is one remediation configuration of the headline
// threshold sweep.
type policyVariant struct {
	key, name string
	rules     *cluster.Remediation
}

// policyVariants builds the headline sweep's rule sets: policy off, the
// default rules with the evacuation rules throttled to 1 and 2 tenant
// moves per epoch, and the unthrottled default.
func policyVariants() []policyVariant {
	out := []policyVariant{{key: "off", name: "off", rules: nil}}
	for _, lim := range []int{1, 2} {
		rules, err := cluster.ParseRules(
			fmt.Sprintf("when rack.dead == 1 -> migrate limit %d/epoch", lim),
			fmt.Sprintf("when row.unreachable == 1 -> migrate limit %d/epoch", lim),
			"when rack.failedDevices >= 1 -> drain",
			"when rack.degraded >= 0.5 -> drain",
			"when rack.repaired == 1 -> reopen",
			"when rack.repaired == 1 && rack.pressure <= 0.6 -> repatriate",
		)
		if err != nil {
			panic(err) // static rules cannot fail to parse
		}
		out = append(out, policyVariant{
			key:   fmt.Sprintf("limit%d", lim),
			name:  fmt.Sprintf("limit %d/epoch", lim),
			rules: rules,
		})
	}
	out = append(out, policyVariant{key: "unlimited", name: "unlimited", rules: cluster.DefaultRules()})
	return out
}

// policyOutcome is one sweep variant's availability and re-placement
// bill.
type policyOutcome struct {
	avail      float64
	moves      int
	downtimeMs float64
	throttled  int
}

// runPolicyVariant rides the shared schedule out on a fresh cluster
// under one rule set and tallies the trade. It returns the cluster and
// its per-epoch stats for the detailed sections.
func runPolicyVariant(cfg cluster.Config, epochs int) (*cluster.Cluster, []cluster.EpochStats, policyOutcome, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, policyOutcome{}, err
	}
	stats, err := c.Run(epochs)
	if err != nil {
		return nil, nil, policyOutcome{}, err
	}
	dead, total := c.SimulatedRackOutage()
	out := policyOutcome{avail: 1, throttled: c.ThrottledActions()}
	if total > 0 {
		out.avail = 1 - float64(dead)/float64(total)
	}
	var downtime sim.Duration
	out.moves, downtime = c.RemediationCost()
	out.downtimeMs = downtime.Seconds() * 1e3
	return c, stats, out, nil
}
