package cluster

import (
	"errors"
	"fmt"
	"testing"

	"cxlpool/internal/faults"
	"cxlpool/internal/sim"
	"cxlpool/internal/workload"
)

// faultConfig is a small federated fleet with a mild hotspot, sized so
// one dead rack's tenants always fit elsewhere.
func faultConfig(t *testing.T, racks int, seed int64) Config {
	t.Helper()
	return Config{
		Topo:           uniformTopo(t, racks),
		TenantsPerRack: 3,
		Seed:           seed,
		Federate:       true,
		Epoch:          200 * sim.Microsecond,
		Skew:           workload.RackSkew{HotFactor: 4, Period: 2},
	}
}

// rackKills scripts one RackKill per (rack, at, duration) triple.
func rackKills(t *testing.T, kills ...[3]int) *faults.Schedule {
	t.Helper()
	var evs []faults.Event
	for _, k := range kills {
		evs = append(evs, faults.Event{Class: faults.RackKill, Rack: k[0], At: k[1], Duration: k[2]})
	}
	s, err := faults.Scripted(evs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Satellite regression: draining an already-draining or dead rack must
// return the typed sentinel and leave placement state untouched. Rack 2
// dies by an injected RackKill at the end of the first epoch.
func TestDrainRackTypedErrors(t *testing.T) {
	cfg := faultConfig(t, 4, 9)
	cfg.Faults = rackKills(t, [3]int{2, 0, 100})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	moved, _, err := c.DrainRack(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("drain moved nobody")
	}
	snapshot := func() string {
		s := ""
		for _, tn := range c.Tenants() {
			s += fmt.Sprintf("%s@%d;", tn.Name, tn.rack)
		}
		return s
	}
	before := snapshot()

	// Double drain: typed error, no tenant moves.
	if _, _, err := c.DrainRack(1); !errors.Is(err, ErrDraining) {
		t.Fatalf("double drain = %v, want ErrDraining", err)
	}
	if got := snapshot(); got != before {
		t.Fatal("failed drain moved tenants")
	}

	// Drain of a dead rack: typed error, no tenant moves.
	if !c.racks[2].dead {
		t.Fatal("injected kill left rack 2 alive")
	}
	if _, _, err := c.DrainRack(2); !errors.Is(err, ErrRackDead) {
		t.Fatalf("drain of dead rack = %v, want ErrRackDead", err)
	}
	if got := snapshot(); got != before {
		t.Fatal("failed drain of dead rack moved tenants")
	}
	if _, _, err := c.DrainRack(99); !errors.Is(err, ErrUnknownRack) {
		t.Fatalf("drain of bogus rack = %v, want ErrUnknownRack", err)
	}

	// The cluster still runs and the drained rack stays empty.
	if _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	for _, tn := range c.Tenants() {
		if tn.rack == 1 {
			t.Fatalf("tenant %s placed on draining rack", tn.Name)
		}
	}
	if err := c.reopenRack(1); err != nil {
		t.Fatal(err)
	}
	if err := c.reopenRack(2); !errors.Is(err, ErrRackDead) {
		t.Fatalf("reopen of dead rack = %v, want ErrRackDead", err)
	}
}

// A rack killed by injected faults stays dead, delivering nothing while
// its epochs still run, until the last overlapping kill repairs: the
// first kill covers epochs 0-2, the second (epochs 1-1) repairs inside
// it and must not revive the rack.
func TestKillAndRepairRack(t *testing.T) {
	cfg := faultConfig(t, 3, 4)
	cfg.Faults = rackKills(t, [3]int{0, 0, 3}, [3]int{0, 1, 1})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e, wantDead := range []int{1, 1, 1, 0, 0} {
		st, err := c.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if st.DeadRacks != wantDead || c.racks[0].dead != (wantDead == 1) {
			t.Fatalf("epoch %d: DeadRacks = %d, rack0 dead %v; want %d", e, st.DeadRacks, c.racks[0].dead, wantDead)
		}
		if wantDead == 1 && st.DeliveredGbps[0] != 0 {
			t.Fatalf("epoch %d: dead rack delivered %.2f Gbps", e, st.DeliveredGbps[0])
		}
	}
	if c.racks[0].faultClearedAt != 3 {
		t.Fatalf("rack 0 repaired at epoch %d, want 3", c.racks[0].faultClearedAt)
	}
}

func TestParseRuleGrammar(t *testing.T) {
	r, err := ParseRule("when rack.repaired == 1 && rack.pressure <= 0.6 -> repatriate")
	if err != nil {
		t.Fatal(err)
	}
	if r.Scope != ScopeRack || r.Action != ActRepatriate || len(r.Conds) != 2 {
		t.Fatalf("parsed rule wrong: %+v", r)
	}
	if r.Conds[1].Sig != SigPressure || r.Conds[1].Op != OpLE || r.Conds[1].Val != 0.6 {
		t.Fatalf("second condition wrong: %+v", r.Conds[1])
	}
	// "unreachable" aliases dead.
	r, err = ParseRule("when row.unreachable == 1 -> migrate")
	if err != nil {
		t.Fatal(err)
	}
	if r.Scope != ScopeRow || r.Conds[0].Sig != SigDead {
		t.Fatalf("alias rule wrong: %+v", r)
	}
	// Fleet-scope signals and the rate-limit suffix.
	r, err = ParseRule("when fleet.headroom < 0.1 -> migrate limit 2/epoch")
	if err != nil {
		t.Fatal(err)
	}
	if r.Scope != ScopeFleet || r.Conds[0].Sig != SigHeadroom || r.Limit != 2 {
		t.Fatalf("fleet rule wrong: %+v", r)
	}
	// A fleet condition does not widen a rack-scoped action.
	r, err = ParseRule("when fleet.queue >= 3 && rack.dead == 1 -> drain limit 1/epoch")
	if err != nil {
		t.Fatal(err)
	}
	if r.Scope != ScopeRack || len(r.Conds) != 2 || r.Limit != 1 {
		t.Fatalf("mixed fleet+rack rule wrong: %+v", r)
	}
	// No limit clause means unlimited.
	if r, err = ParseRule("when fleet.inflight > 4 -> migrate"); err != nil || r.Limit != 0 {
		t.Fatalf("unlimited rule wrong: %+v err=%v", r, err)
	}
	for _, bad := range []string{
		"",
		"drain rack 3",
		"when rack.dead == 1",                           // missing action
		"when rack.dead == 1 -> explode",                // unknown action
		"when rack.vibes == 1 -> drain",                 // unknown signal
		"when pod.dead == 1 -> drain",                   // unknown scope
		"when rack.dead ~= 1 -> drain",                  // unknown operator
		"when rack.dead == soon -> drain",               // non-numeric threshold
		"when rack.dead == 1 && row.dead == 1 -> drain", // mixed scopes
		"when rack.dead == 1 rack.dead == 1 -> drain",   // missing &&
		"when rack.headroom < 0.1 -> drain",             // fleet-only signal at rack scope
		"when row.queue >= 2 -> migrate",                // fleet-only signal at row scope
		"when rack.dead == 1 -> drain limit 0/epoch",    // limit must be positive
		"when rack.dead == 1 -> drain limit -1/epoch",   // negative limit
		"when rack.dead == 1 -> drain limit x/epoch",    // non-numeric limit
		"when rack.dead == 1 -> limit 1/epoch",          // limit without action
	} {
		if _, err := ParseRule(bad); !errors.Is(err, ErrBadRule) {
			t.Errorf("ParseRule(%q) = %v, want ErrBadRule", bad, err)
		}
	}
	if def := DefaultRules(); len(def.rules) != 6 {
		t.Fatalf("DefaultRules has %d rules", len(def.rules))
	}
}

// The acceptance criterion: with remediation on, rack-kill MTTR is
// measurably lower than with remediation off (policy evacuates at the
// next heartbeat instead of waiting out the repair).
func TestPolicyCutsRackKillMTTR(t *testing.T) {
	run := func(remediate bool) *Cluster {
		sched, err := faults.Scripted(
			faults.Event{Class: faults.RackKill, At: 2, Duration: 4, Rack: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		cfg := faultConfig(t, 4, 7)
		cfg.Faults = sched
		if remediate {
			cfg.Remediate = DefaultRules()
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(10); err != nil {
			t.Fatal(err)
		}
		return c
	}
	on, off := run(true), run(false)
	mOn, mOff := on.MTTR(), off.MTTR()
	if mOn.Count(faults.RackKill) != 1 || mOff.Count(faults.RackKill) != 1 {
		t.Fatalf("recoveries on/off = %d/%d, want 1/1",
			mOn.Count(faults.RackKill), mOff.Count(faults.RackKill))
	}
	tOn, tOff := mOn.MeanEpochs(faults.RackKill), mOff.MeanEpochs(faults.RackKill)
	if tOn >= tOff {
		t.Fatalf("policy MTTR %.2f not below tolerate-only %.2f", tOn, tOff)
	}
	moves, downtime := on.RemediationCost()
	if moves == 0 || downtime == 0 {
		t.Fatal("remediation recorded no moves/downtime")
	}
	// The tolerate-only run leaves the kill exposed its whole duration.
	if tOff != 4 {
		t.Fatalf("tolerate-only MTTR %.2f, want the 4-epoch duration", tOff)
	}
}

func TestBrownoutTaxesFabricPaths(t *testing.T) {
	sched, err := faults.Scripted(
		faults.Event{Class: faults.Brownout, At: 0, Duration: 3, Src: 0, Dst: 2, Severity: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(t, 4, 3)
	cfg.Faults = sched
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthy := c.MigrationCost(0, 2)
	other := c.MigrationCost(0, 1)
	if _, err := c.RunEpoch(); err != nil { // strike applies during e0
		t.Fatal(err)
	}
	browned := c.MigrationCost(0, 2)
	if browned <= healthy {
		t.Fatalf("brownout did not raise path cost: %v <= %v", browned, healthy)
	}
	if got := c.MigrationCost(0, 1); got != other {
		t.Fatalf("brownout leaked onto an uncovered path: %v != %v", got, other)
	}
	// Fault records close after repair and the path heals.
	if _, err := c.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := c.MigrationCost(0, 2); got != healthy {
		t.Fatalf("path still taxed after repair: %v != %v", got, healthy)
	}
	recs := c.FaultRecords()
	if len(recs) != 1 || recs[0].Recovered < 0 {
		t.Fatalf("fault record not closed: %+v", recs)
	}
}

// Correlated domains: one pdufail event takes down every rack sharing
// the PDU simultaneously, and the repair revives them together.
func TestPDUFailKillsWholeDomain(t *testing.T) {
	sched, err := faults.Scripted(
		faults.Event{Class: faults.PDUFail, At: 1, Duration: 2, PDU: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(t, 4, 5)
	cfg.Faults = sched
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunEpoch(); err != nil { // e0: clean
		t.Fatal(err)
	}
	st, err := c.RunEpoch() // e1: strike lands
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadRacks != 2 {
		t.Fatalf("DeadRacks = %d, want the whole 2-rack PDU", st.DeadRacks)
	}
	racks := c.Racks()
	if !racks[0].Dead() || !racks[1].Dead() || racks[2].Dead() || racks[3].Dead() {
		t.Fatal("pdufail blast radius wrong")
	}
	if _, err := c.RunEpoch(); err != nil { // e2: still down
		t.Fatal(err)
	}
	st, err = c.RunEpoch() // e3: repair lands at the heartbeat
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadRacks != 0 || racks[0].Dead() || racks[1].Dead() {
		t.Fatal("PDU repair did not revive the domain together")
	}
}

// Partial degradation: a cracfail throttles every rack in the row to
// the cooling-loss fraction, and a hostkill shrinks one rack's pooled
// inventory without killing it; both heal on repair.
func TestCoolingAndHostFaultsDegradeCapacity(t *testing.T) {
	sched, err := faults.Scripted(
		faults.Event{Class: faults.CRACFail, At: 1, Duration: 2, Row: 0},
		faults.Event{Class: faults.HostKill, At: 1, Duration: 2, Rack: 3, Host: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(t, 4, 6)
	cfg.Faults = sched
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(2); err != nil { // e0 clean, e1 strikes
		t.Fatal(err)
	}
	st, err := c.RunEpoch() // e2: both faults open
	if err != nil {
		t.Fatal(err)
	}
	racks := c.Racks()
	if st.DeadRacks != 0 {
		t.Fatalf("degradations killed %d racks", st.DeadRacks)
	}
	for i, r := range racks {
		if r.capScale != faults.DefaultCRACScale {
			t.Fatalf("rack %d capScale = %g under cracfail, want %g", i, r.capScale, faults.DefaultCRACScale)
		}
	}
	if got := racks[3].lostGbps; got != 100 {
		t.Fatalf("hostkill lost %g Gbps, want the host's 100", got)
	}
	if got := racks[3].effCapacityGbps(); got != 100 {
		t.Fatalf("effective capacity = %g, want 100", got)
	}
	if _, err := c.RunEpoch(); err != nil { // e3: repairs land
		t.Fatal(err)
	}
	for i, r := range racks {
		if r.capScale != 1 || r.lostGbps != 0 {
			t.Fatalf("rack %d not healed: scale=%g lost=%g", i, r.capScale, r.lostGbps)
		}
	}
}

// Finite crews: two simultaneous PDU failures with one crew serialize —
// the second fault's MTTR exceeds its scheduled repair duration by
// exactly the queueing delay the free-repair baseline hides.
func TestFiniteCrewsQueueStretchesMTTR(t *testing.T) {
	mk := func(crews int) *Cluster {
		sched, err := faults.Scripted(
			faults.Event{Class: faults.PDUFail, At: 2, Duration: 3, PDU: 0},
			faults.Event{Class: faults.PDUFail, At: 2, Duration: 3, PDU: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		cfg := faultConfig(t, 4, 8)
		cfg.Faults = sched
		cfg.Crews = crews
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(12); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Unlimited workforce: both faults repair on schedule, nobody waits.
	free := mk(0).MTTR()
	if free.Count(faults.PDUFail) != 2 || free.MeanEpochs(faults.PDUFail) != 3 {
		t.Fatalf("free-repair MTTR = %g over %d, want 3 over 2",
			free.MeanEpochs(faults.PDUFail), free.Count(faults.PDUFail))
	}
	if free.TotalWaitEpochs() != 0 {
		t.Fatalf("unlimited crews queued %d epochs", free.TotalWaitEpochs())
	}
	// One crew: the second fault waits out the first repair (3 epochs),
	// so MTTRs are 3 and 3+3 — mean 4.5, mean wait 1.5.
	one := mk(1).MTTR()
	if one.Count(faults.PDUFail) != 2 {
		t.Fatalf("crew-limited run recovered %d faults", one.Count(faults.PDUFail))
	}
	if got := one.MeanEpochs(faults.PDUFail); got != 4.5 {
		t.Fatalf("crew-limited MTTR = %g, want 4.5 (duration + queueing delay)", got)
	}
	if got := one.MeanWaitEpochs(faults.PDUFail); got != 1.5 {
		t.Fatalf("mean wait = %g, want 1.5", got)
	}
	if one.TotalWaitEpochs() != 3 {
		t.Fatalf("total wait = %d, want 3", one.TotalWaitEpochs())
	}
}

// Crew priority: with one crew and a flap struck before a rack kill,
// the dead rack jumps the queue — kills repair first, flaps last.
func TestCrewPriorityPrefersDeadRacks(t *testing.T) {
	sched, err := faults.Scripted(
		faults.Event{Class: faults.FlapNIC, At: 1, Duration: 2, Rack: 0, Device: 0},
		faults.Event{Class: faults.FlapNIC, At: 1, Duration: 2, Rack: 2, Device: 0},
		faults.Event{Class: faults.RackKill, At: 2, Duration: 2, Rack: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(t, 4, 9)
	cfg.Faults = sched
	cfg.Crews = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(12); err != nil {
		t.Fatal(err)
	}
	m := c.MTTR()
	// Flap 1 takes the crew at e1 (wait 0) and repairs at e3; the kill,
	// struck at e2, preempts the second flap when the crew frees at e3
	// (wait 1) and repairs at e5; flap 2 waits until e5 (wait 4).
	if got := m.MeanWaitEpochs(faults.RackKill); got != 1 {
		t.Fatalf("rackkill wait = %g, want 1 (jumped the flap queue)", got)
	}
	if got := m.MeanWaitEpochs(faults.FlapNIC); got != 2 {
		t.Fatalf("flap mean wait = %g, want (0+4)/2", got)
	}
}

// The token bucket: a migrate rule limited to one move per epoch
// spreads a dead rack's evacuation over several heartbeats, counting
// every suppressed move as throttled.
func TestRateLimitThrottlesEvacuation(t *testing.T) {
	run := func(rule string) *Cluster {
		sched, err := faults.Scripted(
			faults.Event{Class: faults.RackKill, At: 2, Duration: 6, Rack: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		cfg := faultConfig(t, 4, 7)
		cfg.Faults = sched
		rules, err := ParseRules(rule)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Remediate = rules
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(10); err != nil {
			t.Fatal(err)
		}
		return c
	}
	limited := run("when rack.dead == 1 -> migrate limit 1/epoch")
	open := run("when rack.dead == 1 -> migrate")
	if limited.ThrottledActions() == 0 {
		t.Fatal("rate limit throttled nothing")
	}
	if open.ThrottledActions() != 0 {
		t.Fatalf("unlimited rule throttled %d actions", open.ThrottledActions())
	}
	lm, om := limited.MTTR(), open.MTTR()
	if lm.Count(faults.RackKill) != 1 || om.Count(faults.RackKill) != 1 {
		t.Fatal("kill never recovered")
	}
	if lm.MeanEpochs(faults.RackKill) <= om.MeanEpochs(faults.RackKill) {
		t.Fatalf("throttled MTTR %g not above unthrottled %g",
			lm.MeanEpochs(faults.RackKill), om.MeanEpochs(faults.RackKill))
	}
}

// Fleet conditions gate a rack-scoped action: the rule only fires once
// the fleet-wide dead count crosses the threshold.
func TestFleetScopeGatesRackAction(t *testing.T) {
	sched, err := faults.Scripted(
		faults.Event{Class: faults.RackKill, At: 1, Duration: 8, Rack: 0},
		faults.Event{Class: faults.RackKill, At: 4, Duration: 5, Rack: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(t, 4, 13)
	cfg.Faults = sched
	rules, err := ParseRules("when fleet.dead >= 2 && rack.dead == 1 -> migrate")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Remediate = rules
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	// The first kill alone never triggers (fleet.dead == 1); only after
	// the second kill does the policy evacuate — both racks at once.
	for e := 0; e < 5; e++ {
		if stats[e].PolicyActions != 0 {
			t.Fatalf("epoch %d acted with only one rack dead", e)
		}
	}
	if stats[5].PolicyActions == 0 {
		t.Fatal("fleet-gated rule never fired after the second kill")
	}
}

// Satellite regression: schedules naming unknown PDUs, rows, racks, or
// hosts are rejected at cluster construction with the typed faults
// error, never mid-run.
func TestClusterRejectsUnknownDomains(t *testing.T) {
	for _, ev := range []faults.Event{
		{Class: faults.RackKill, At: 0, Duration: 1, Rack: 9},
		{Class: faults.RowKill, At: 0, Duration: 1, Row: 9},
		{Class: faults.PDUFail, At: 0, Duration: 1, PDU: 9},
		{Class: faults.CRACFail, At: 0, Duration: 1, Row: 9},
		{Class: faults.HostKill, At: 0, Duration: 1, Rack: 0, Host: 9},
		{Class: faults.HostKill, At: 0, Duration: 1, Rack: 0, Host: 0},
	} {
		sched, err := faults.Scripted(ev)
		if err != nil {
			t.Fatal(err)
		}
		cfg := faultConfig(t, 4, 1)
		cfg.Faults = sched
		if _, err := New(cfg); !errors.Is(err, faults.ErrInvalid) {
			t.Errorf("New accepted %v schedule (err=%v)", ev.Class, err)
		}
	}
}

func TestFaultedClusterDeterministicAcrossWorkers(t *testing.T) {
	trace := func(workers int) string {
		sched, err := faults.Random(faults.RandomConfig{
			Epochs: 8, Racks: 4, Rows: 1, Rate: 0.6, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := faultConfig(t, 4, 21)
		cfg.Workers = workers
		cfg.Faults = sched
		cfg.Remediate = DefaultRules()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := c.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, st := range stats {
			out += fmt.Sprintf("%+v\n", st)
		}
		for _, rec := range c.FaultRecords() {
			out += fmt.Sprintf("%v struck=%d recovered=%d\n", rec.Event, rec.Struck, rec.Recovered)
		}
		dead, total := c.SimulatedRackOutage()
		out += fmt.Sprintf("outage=%d/%d mttr=%d\n", dead, total, c.MTTR().Total())
		return out
	}
	if a, b := trace(1), trace(4); a != b {
		t.Fatalf("faulted cluster diverges across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", a, b)
	}
}

// FuzzParseRule feeds arbitrary text through the policy grammar. The
// contract under fuzzing: the parser never panics, every failure wraps
// ErrBadRule, and every accepted rule round-trips through its canonical
// text to an identical rule.
func FuzzParseRule(f *testing.F) {
	for _, seed := range []string{
		"",
		"when rack.dead == 1 -> migrate",
		"when row.degraded >= 0.5 -> drain",
		"when fleet.headroom < 0.1 -> migrate limit 2/epoch",
		"when fleet.queue >= 3 && rack.dead == 1 -> drain limit 1/epoch",
		"when rack.repaired == 1 && rack.pressure <= 0.6 -> repatriate",
		"when rack.dead == 1 -> drain limit 0/epoch",
		"when rack.dead == 1 -> drain limit 9999999999999999999/epoch",
		"when pod.dead == 1 -> drain",
		"when rack..dead == 1 -> drain",
		"when rack.dead == NaN -> drain",
		"when rack.dead == 1 &&",
		"limit 1/epoch",
		"when \x00fleet.inflight > 1 -> migrate",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRule(s)
		if err != nil {
			if !errors.Is(err, ErrBadRule) {
				t.Fatalf("ParseRule(%q) error %v does not wrap ErrBadRule", s, err)
			}
			return
		}
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("canonical text %q of accepted rule %q fails to re-parse: %v", r.String(), s, err)
		}
		if r2.String() != r.String() {
			t.Fatalf("round-trip drift: %q -> %q", r.String(), r2.String())
		}
	})
}
