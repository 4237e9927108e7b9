package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"

	"cxlpool/internal/churn"
	"cxlpool/internal/cluster"
	"cxlpool/internal/experiments"
	"cxlpool/internal/faults"
	"cxlpool/internal/sim"
	"cxlpool/internal/topo"
	demand "cxlpool/internal/workload"
)

// frameBytes is the cluster's tenant frame payload (its jumbo-frame
// constant), used to turn Tenant.Traffic byte counts into frames.
const frameBytes = 8192

// rackWorkers is cluster.Config.Workers on every fleet workload. The
// simulated result is the same at any worker count; one worker keeps
// the timed work on one goroutine, which on a shared two-CPU host
// halved the pass-to-pass spread of parallel rack simulation.
const rackWorkers = 1

// workload is one benchmark input shape. setup builds a fresh instance
// for a seed (timed as setup_s); the instance's run does the fixed
// simulated work once (timed as wall_s and cpu_s); finish checks the
// outputs and reads the per-layer counters, untimed.
type workload struct {
	name string
	// minPasses is the fewest passes a run makes (each its own input);
	// the run's sim_digest and counts cover these inputs.
	minPasses int
	setup     func(seed int64, tr *tracer) (instance, error)
}

type instance interface {
	// run does the instance's work, step by step (epochs or
	// scenarios). It stops at the first error.
	run(tr *tracer) error
	// finish checks the outputs and reads the deterministic counters.
	finish() passResult
}

// passResult is what one pass leaves behind besides its timings.
type passResult struct {
	// steps counts the epochs or scenario runs attempted; bad holds
	// those that returned an error or failed a check. A check over the
	// whole pass counts against its last step.
	steps int
	bad   map[int]bool
	// digest is a sha256 over every epoch's EpochStats, or over the
	// rendered artifact text.
	digest string
	// counts are the deterministic per-layer values of the pass.
	counts map[string]float64
	// problems are the failed checks, one line each.
	problems []string
}

func (r *passResult) fail(step int, format string, args ...any) {
	if r.bad == nil {
		r.bad = map[int]bool{}
	}
	r.bad[step] = true
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads is the benchmark's workload table, in BENCHMARK.json order;
// root is the repository root the artifacts golden is read from.
func workloads(root string) []workload {
	return []workload{
		{name: "fleet-hotspot", minPasses: 4, setup: fleetHotspot.setup},
		{name: "churn-admission", minPasses: 4, setup: churnAdmission.setup},
		{name: "faults-oversub", minPasses: 4, setup: faultsOversub.setup},
		{name: "artifacts", minPasses: 2, setup: artifactsSetup(root, experiments.Artifacts())},
	}
}

func lookupWorkload(root, name string) (workload, error) {
	var names []string
	for _, w := range workloads(root) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// inputSeed derives the seed of a run's k-th input. Each pass is a
// fresh draw, so a run's medians span many seeds instead of hinging on
// one; input 0 is the seed itself, so --seed 42 runs the golden-pinned
// artifacts.
func inputSeed(seed int64, k int) int64 { return seed + int64(k)*7919 }

// fleet is a cluster workload: a topology, a tenant population, and
// the optional churn, fault and spine machinery, run for a fixed number
// of epochs.
type fleet struct {
	topo    func() (*topo.Topology, error)
	tenants int
	skew    demand.RackSkew
	oversub float64
	epoch   sim.Duration
	epochs  int
	// churn, when set, drives arrivals and departures through admission
	// with warm-pool autoscaling; its Epochs, Racks and Seed are filled
	// in per input.
	churn *churn.GenConfig
	// faults, when set, strikes random faults that one repair crew
	// mends under the default remediation rules; its Epochs, fleet shape
	// and Seed are filled in per input.
	faults *faults.RandomConfig
}

// The fleets are 8 racks in 2 rows of 4.
func twoRows() (*topo.Topology, error) { return topo.MultiRow(2, 4, topo.RackSpec{}) }

var (
	fleetHotspot = fleet{
		topo:    twoRows,
		tenants: 6,
		skew:    demand.RackSkew{HotFactor: 12, Period: 2},
		epoch:   sim.Millisecond,
		epochs:  8,
	}
	churnAdmission = fleet{
		topo:   twoRows,
		skew:   demand.RackSkew{HotFactor: 1, Period: 1},
		epoch:  100 * sim.Microsecond,
		epochs: 100,
		churn: &churn.GenConfig{
			Arrivals: churn.ArrivalsBursty,
			Rate:     3,
			Lifetime: churn.LifePareto,
			MeanLife: 40,
		},
	}
	faultsOversub = fleet{
		topo: func() (*topo.Topology, error) {
			t, err := twoRows()
			if err != nil {
				return nil, err
			}
			return t.WithPDUSpan(2)
		},
		tenants: 6,
		skew:    demand.RackSkew{HotFactor: 12, Period: 2},
		oversub: 4,
		epoch:   50 * sim.Microsecond,
		epochs:  100,
		faults:  &faults.RandomConfig{Rate: 0.15, MinDuration: 1, MaxDuration: 4},
	}
)

type fleetInstance struct {
	f     fleet
	c     *cluster.Cluster
	trace *churn.Trace
	sched *faults.Schedule
	stats []cluster.EpochStats
	// scanned and abandoned are read after every epoch: the tenant list
	// length the per-epoch scans walk, and the cumulative abandoned
	// admissions (for the reconciler's eviction count).
	scanned   []int
	abandoned []int
	err       error
}

func (f fleet) setup(seed int64, tr *tracer) (instance, error) {
	tp, err := f.topo()
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Topo:           tp,
		TenantsPerRack: f.tenants,
		Seed:           seed,
		Federate:       true,
		Skew:           f.skew,
		Workers:        rackWorkers,
		Oversub:        f.oversub,
		Epoch:          f.epoch,
	}
	in := &fleetInstance{f: f}
	if f.churn != nil {
		gen := *f.churn
		gen.Epochs, gen.Racks, gen.Seed = f.epochs, tp.RackCount(), seed
		tr.begin("churn.generate")
		in.trace, err = churn.Generate(gen)
		tr.end()
		if err != nil {
			return nil, err
		}
		cfg.Churn = in.trace
		cfg.Autoscale = true
	}
	if f.faults != nil {
		rc := *f.faults
		rc.Epochs, rc.Racks, rc.Rows, rc.PDUs = f.epochs, tp.RackCount(), tp.RowCount(), tp.PDUCount()
		rc.HostsPerRack, rc.Seed = tp.Rack(0).Spec.Hosts, seed
		tr.begin("faults.schedule")
		in.sched, err = faults.Random(rc)
		tr.end()
		if err != nil {
			return nil, err
		}
		cfg.Faults = in.sched
		cfg.Crews = 1
		cfg.Remediate = cluster.DefaultRules()
	}
	tr.begin("cluster.new")
	in.c, err = cluster.New(cfg)
	tr.end()
	if err != nil {
		return nil, err
	}
	return in, nil
}

func (in *fleetInstance) run(tr *tracer) error {
	for e := 0; e < in.f.epochs; e++ {
		tr.begin("cluster.run_epoch")
		st, err := in.c.RunEpoch()
		tr.end()
		if err != nil {
			in.err = fmt.Errorf("epoch %d: %w", e, err)
			return in.err
		}
		in.stats = append(in.stats, st)
		in.scanned = append(in.scanned, len(in.c.Tenants()))
		in.abandoned = append(in.abandoned, in.c.AdmissionTotals().Abandoned)
	}
	return nil
}

func (in *fleetInstance) finish() passResult {
	res := passResult{steps: len(in.stats), counts: map[string]float64{}}
	if in.err != nil {
		res.steps++
		res.fail(len(in.stats), "RunEpoch: %v", in.err)
	}
	last := res.steps - 1

	h := sha256.New()
	var migrations, repatriations, unplaced, actions, throttled, spineThrottled, scanned int
	var maxUtil, live float64
	for i, st := range in.stats {
		fmt.Fprintf(h, "%+v\n", st)
		if in.f.churn != nil && st.Admitted+st.Rejected != st.Arrivals+st.Retried {
			res.fail(i, "epoch %d: admitted %d + rejected %d != arrivals %d + retried %d",
				st.Epoch, st.Admitted, st.Rejected, st.Arrivals, st.Retried)
		}
		if in.f.oversub == 0 && (st.SpineMaxUtil != 0 || st.SpineThrottled != 0 || st.SpineQueuedGbps != 0) {
			res.fail(i, "epoch %d: non-blocking spine reports util %g, throttled %d, queued %g Gbps",
				st.Epoch, st.SpineMaxUtil, st.SpineThrottled, st.SpineQueuedGbps)
		}
		migrations += st.Migrations
		repatriations += st.Repatriations
		unplaced += st.Unplaced
		actions += st.PolicyActions
		throttled += st.PolicyThrottled
		spineThrottled += st.SpineThrottled
		maxUtil = math.Max(maxUtil, st.SpineMaxUtil)
		scanned += in.scanned[i]
		if in.f.churn != nil {
			live += float64(st.Live)
		} else {
			live += float64(in.scanned[i])
		}
	}
	res.digest = fmt.Sprintf("%x", h.Sum(nil))

	var offered, sent, delivered uint64
	for _, t := range in.c.Tenants() {
		o, s := t.Traffic()
		d := in.c.Delivered(t)
		if d > o {
			res.fail(last, "tenant %s: delivered %d bytes > offered %d", t.Name, d, o)
		}
		offered += o
		sent += s
		delivered += d
	}

	var events uint64
	var sweeps, orchMigs, failovers uint64
	for _, r := range in.c.Racks() {
		events += r.Pod.Engine.Processed()
		f, m, s := r.Orch.Stats()
		failovers += f
		orchMigs += m
		sweeps += s
	}
	var transfers, carried uint64
	var wait sim.Duration
	for _, l := range in.c.SpineLinks() {
		transfers += l.Transfers
		carried += l.CarriedBytes
		wait += l.WaitTotal
	}
	if in.f.oversub == 0 && wait != 0 {
		res.fail(last, "non-blocking spine booked %v of transfer wait", wait)
	}

	n := float64(len(in.stats))
	tot := in.c.AdmissionTotals()
	// Every unplaced churn tenant is retried next epoch unless it departs
	// first (abandoned), so what the retries do not account for as
	// earlier rejections are tenants the reconciler evicted.
	evictions := 0
	for e := 1; e < len(in.stats); e++ {
		evictions += in.stats[e].Retried + (in.abandoned[e] - in.abandoned[e-1]) - in.stats[e-1].Rejected
	}
	deadRackEpochs, _ := in.c.SimulatedRackOutage()
	m := res.counts
	m["sim.events"] = float64(events)
	m["datapath.frames_offered"] = float64(offered / frameBytes)
	m["datapath.frames_sent"] = float64(sent / frameBytes)
	m["datapath.delivered_mb"] = float64(delivered) / 1e6
	m["cluster.goodput"] = ratio(float64(delivered), float64(offered))
	m["orch.sweeps"] = float64(sweeps)
	m["orch.migrations"] = float64(orchMigs)
	m["orch.failovers"] = float64(failovers)
	m["cluster.migrations"] = float64(migrations)
	m["cluster.repatriations"] = float64(repatriations)
	m["cluster.unplaced"] = float64(unplaced)
	m["cluster.policy_actions"] = float64(actions)
	m["cluster.policy_throttled"] = float64(throttled)
	m["cluster.admitted"] = float64(tot.Admitted)
	m["cluster.rejected"] = float64(tot.Rejected)
	m["cluster.retried"] = float64(tot.Retried)
	m["cluster.abandoned"] = float64(tot.Abandoned)
	m["cluster.warm_grows"] = float64(tot.WarmGrows)
	m["cluster.warm_shrinks"] = float64(tot.WarmShrinks)
	m["cluster.admit_yield"] = ratio(float64(tot.Admitted), float64(tot.Admitted+tot.Rejected))
	m["cluster.reconcile_evictions"] = float64(evictions)
	m["cluster.reconcile_yield"] = ratio(float64(migrations), float64(migrations+evictions))
	m["cluster.tenants_scanned_mean"] = ratio(float64(scanned), n)
	m["cluster.live_mean"] = ratio(live, n)
	m["cluster.admit_p99_us"] = in.c.AdmissionLatency().Percentile(99) / 1e3
	m["spine.transfers"] = float64(transfers)
	m["spine.carried_mb"] = float64(carried) / 1e6
	m["spine.wait_ms"] = float64(wait) / 1e6
	m["spine.throttled"] = float64(spineThrottled)
	m["spine.max_util"] = maxUtil
	if in.sched != nil {
		m["faults.records"] = float64(len(in.c.FaultRecords()))
		mttr := in.c.MTTR()
		var sum float64
		for _, c := range faults.Classes() {
			sum += mttr.MeanEpochs(c) * float64(mttr.Count(c))
		}
		m["faults.mttr_mean_epochs"] = ratio(sum, float64(mttr.Total()))
		m["faults.dead_rack_epochs"] = float64(deadRackEpochs)
	}
	if in.trace != nil {
		m["churn.events"] = float64(in.trace.Len())
	}
	return res
}
