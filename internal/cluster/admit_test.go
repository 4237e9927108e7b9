package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cxlpool/internal/churn"
	"cxlpool/internal/topo"
	"cxlpool/internal/workload"
)

// mustTrace parses a scripted trace or fails the test.
func mustTrace(t *testing.T, lines ...string) *churn.Trace {
	t.Helper()
	tr, err := churn.ParseTrace([]byte(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// churnConfig is a small federated churn-mode cluster: flat demand
// (the schedule is the workload), no legacy population.
func churnConfig(t *testing.T, racks int, tr *churn.Trace) Config {
	t.Helper()
	return Config{
		Topo:     uniformTopo(t, racks),
		Seed:     9,
		Federate: true,
		Skew:     workload.RackSkew{HotFactor: 1, Period: 1},
		Churn:    tr,
	}
}

func TestAdmitLocalFirst(t *testing.T) {
	tr := mustTrace(t, "0 arrive a 10 1")
	c, err := New(churnConfig(t, 3, tr))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals != 1 || st.Admitted != 1 || st.Rejected != 0 {
		t.Fatalf("epoch stats %+v, want 1 arrival admitted", st)
	}
	tn := c.byName["a"]
	if tn == nil || tn.Rack() != 1 {
		t.Fatalf("tenant a placed in rack %v, want home rack 1", tn)
	}
	if st.AdmitP50 <= 0 || st.AdmitP99 < st.AdmitP50 {
		t.Fatalf("admission latency percentiles p50=%g p99=%g", st.AdmitP50, st.AdmitP99)
	}
	if st.Live != 1 {
		t.Fatalf("live = %d, want 1", st.Live)
	}
}

func TestAdmitSpillsWithOneProbe(t *testing.T) {
	// Rack 0 capacity is 200 Gbps, threshold 0.7 -> 140 Gbps budget.
	// Two 75 Gbps tenants exceed it; the second must spill.
	tr := mustTrace(t, "0 arrive big0 75 0", "0 arrive big1 75 0")
	c, err := New(churnConfig(t, 3, tr))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 2 {
		t.Fatalf("admitted %d of 2", st.Admitted)
	}
	a, b := c.byName["big0"], c.byName["big1"]
	if a.Rack() != 0 {
		t.Fatalf("big0 in rack %d, want home 0", a.Rack())
	}
	if b.Rack() == 0 || b.Rack() < 0 {
		t.Fatalf("big1 in rack %d, want a spill rack", b.Rack())
	}
	_, spill, _, _ := c.Counters()
	if spill.Total() != 1 {
		t.Fatalf("spill counter %d, want 1", spill.Total())
	}
}

func TestAdmitRejectTyped(t *testing.T) {
	// Three tenants each demanding 75 Gbps of a 140 Gbps rack budget:
	// the third finds neither home nor the (also loaded) spill rack.
	tr := mustTrace(t,
		"0 arrive a 75 0", "0 arrive b 75 0",
		"0 arrive c 75 1", "0 arrive d 75 1",
		"0 arrive e 75 0")
	c, err := New(churnConfig(t, 2, tr))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Fatalf("epoch stats %+v, want at least one rejection", st)
	}
	if n := c.RejectCount(RejectNoCapacity); n != st.Rejected {
		t.Fatalf("RejectNoCapacity = %d, want %d", n, st.Rejected)
	}
	// The typed error surface itself.
	tn := &Tenant{Name: "probe", Home: 0, BaseGbps: 75, gbps: 75, idx: len(c.tenants), rack: -1}
	_, err = c.Admit(tn)
	if !errors.Is(err, ErrAdmit) {
		t.Fatalf("Admit error %v does not wrap ErrAdmit", err)
	}
	var ae *AdmitError
	if !errors.As(err, &ae) || ae.Reason != RejectNoCapacity {
		t.Fatalf("Admit error %v, want AdmitError{RejectNoCapacity}", err)
	}
}

// Every rack is killed by an injected RackKill at the end of epoch 0, so
// the arrival at epoch 1 finds nothing to serve it.
func TestAdmitRejectUnservable(t *testing.T) {
	tr := mustTrace(t, "1 arrive a 5 0")
	cfg := churnConfig(t, 2, tr)
	cfg.Faults = rackKills(t, [3]int{0, 0, 5}, [3]int{1, 0, 5})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	st, err := c.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 || c.RejectCount(RejectUnservable) != 1 {
		t.Fatalf("epoch stats %+v rejects %v, want one unservable rejection",
			st, c.rejects)
	}
}

// TestAdmitRollbackOnBindFailure pins the fast path's rollback
// discipline (the Bind/Harvest contract one layer up): an Admit that
// fails — at home, at the spill probe, or both — must leave every
// rack's cached headroom summary byte-identical to its pre-call state.
func TestAdmitRollbackOnBindFailure(t *testing.T) {
	tr := mustTrace(t, "0 arrive seed0 5 0")
	c, err := New(churnConfig(t, 2, tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// Fail every pooled NIC everywhere, but leave the (now stale)
	// summaries claiming the racks are fine: the summary admits, the
	// bind fails, and the reservation must be credited back.
	for _, r := range c.racks {
		for _, nic := range r.poolNICs {
			nic.Fail()
		}
	}
	c.refreshSummaries()
	before := make([]headroom, len(c.summaries))
	copy(before, c.summaries)
	tn := &Tenant{Name: "victim", Home: 0, BaseGbps: 5, gbps: 5, idx: len(c.tenants), rack: -1}
	res, err := c.Admit(tn)
	if err == nil {
		t.Fatalf("Admit succeeded (%+v) with every device failed", res)
	}
	var ae *AdmitError
	if !errors.As(err, &ae) || ae.Reason != RejectBindFailed {
		t.Fatalf("Admit error %v, want AdmitError{RejectBindFailed}", err)
	}
	for i := range before {
		if c.summaries[i] != before[i] {
			t.Fatalf("rack %d summary mutated by failed Admit: %+v -> %+v",
				i, before[i], c.summaries[i])
		}
	}
	if tn.rack != -1 || tn.vnic != nil {
		t.Fatalf("failed Admit left tenant state %+v", tn)
	}
}

func TestDepartReleasesCapacity(t *testing.T) {
	tr := mustTrace(t, "0 arrive a 40 0", "2 depart a")
	c, err := New(churnConfig(t, 2, tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := c.summaries[0].usedGbps; got != 40 {
		t.Fatalf("rack0 summary used %g after admission, want 40", got)
	}
	if _, err := c.RunEpoch(); err != nil { // epoch 1: nothing scheduled
		t.Fatal(err)
	}
	st, err := c.RunEpoch() // epoch 2: departure
	if err != nil {
		t.Fatal(err)
	}
	if st.Departures != 1 || st.Live != 0 {
		t.Fatalf("epoch stats %+v, want one departure, zero live", st)
	}
	if got := c.summaries[0].usedGbps; got != 0 {
		t.Fatalf("rack0 summary used %g after departure, want 0", got)
	}
	if tot := c.AdmissionTotals(); tot.Admitted != 1 || tot.Live != 0 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestDepartBeforeAdmissionAbandons(t *testing.T) {
	// A tenant that never fits: both racks are pre-loaded past the
	// spill budget, so it waits, retries, and finally departs
	// un-admitted — an abandoned admission, not an error.
	tr := mustTrace(t,
		"0 arrive whale 79 0", "0 arrive blocker 79 1",
		"0 arrive whale2 79 0", "2 depart whale2")
	c, err := New(churnConfig(t, 2, tr))
	if err != nil {
		t.Fatal(err)
	}
	sts, err := c.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	tot := c.AdmissionTotals()
	if tot.Admitted != 2 {
		t.Fatalf("totals %+v, want the two 79 Gbps anchors admitted", tot)
	}
	if tot.Retried == 0 {
		t.Fatalf("totals %+v, want retries for the waiting whale", tot)
	}
	if tot.Abandoned != 1 {
		t.Fatalf("totals %+v, want one abandoned admission", tot)
	}
	if last := sts[len(sts)-1]; last.Live != 2 {
		t.Fatalf("final live %d, want 2", last.Live)
	}
}

func TestChurnAutoscaleGrowsAndShrinks(t *testing.T) {
	// Five pooled devices per rack (six hosts, one orchestrator home)
	// so warm slots have spare distinct devices to harvest: warm pools
	// are carved from whatever the tenant binds leave unused.
	top, err := topo.Uniform(2, topo.RackSpec{Hosts: 6})
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTrace(t,
		"0 arrive t0 5 0", "0 arrive t1 5 0", "0 arrive t2 5 0",
		"1 arrive late 5 0",
		"2 depart t0", "2 depart t1", "2 depart t2", "2 depart late")
	cfg := churnConfig(t, 2, tr)
	cfg.Topo = top
	cfg.Autoscale = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st0, err := c.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	// Three admissions into rack 0 cap the warm target at WarmSlotCap.
	if st0.WarmGrow != WarmSlotCap {
		t.Fatalf("epoch 0 WarmGrow = %d, want %d: %+v", st0.WarmGrow, WarmSlotCap, st0)
	}
	if got := c.racks[0].WarmSlots(); got != WarmSlotCap {
		t.Fatalf("rack 0 warm slots = %d, want %d", got, WarmSlotCap)
	}
	// The late arrival lands on a pre-bound warm slot and consumes it.
	st1, err := c.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Admitted != 1 {
		t.Fatalf("epoch 1 stats %+v, want the late admission", st1)
	}
	if got := c.racks[0].WarmSlots(); got != WarmSlotCap-1 {
		t.Fatalf("rack 0 warm slots = %d after warm admission, want %d", got, WarmSlotCap-1)
	}
	// Mass departure: the next reconciler pass shrinks the pool to zero.
	if _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	tot := c.AdmissionTotals()
	if tot.WarmGrows == 0 || tot.WarmShrinks == 0 {
		t.Fatalf("totals %+v, want both grows and shrinks over the burst", tot)
	}
	for i, r := range c.racks {
		if r.WarmSlots() != 0 {
			t.Fatalf("rack %d still holds %d warm slots after quiet epochs", i, r.WarmSlots())
		}
	}
}

func TestChurnWorkerDeterminism(t *testing.T) {
	gen, err := churn.Generate(churn.GenConfig{Epochs: 8, Racks: 3, Rate: 4, MeanLife: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		cfg := churnConfig(t, 3, gen)
		cfg.Workers = workers
		cfg.Autoscale = true
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sts, err := c.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, st := range sts {
			out += fmt.Sprintf("%+v\n", st)
		}
		out += fmt.Sprintf("%+v\n", c.AdmissionTotals())
		for _, tn := range c.Tenants() {
			off, sent := tn.Traffic()
			out += fmt.Sprintf("%s rack=%d off=%d sent=%d del=%d\n",
				tn.Name, tn.Rack(), off, sent, c.Delivered(tn))
		}
		return out
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("churn cluster diverges across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", a, b)
	}
}
