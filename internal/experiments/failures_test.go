package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"cxlpool/internal/report"
	"cxlpool/internal/torless"
)

// scalar finds a named scalar in the report.
func scalar(t *testing.T, rep *report.Report, name string) float64 {
	t.Helper()
	for _, s := range rep.Scalars {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("report has no scalar %q", name)
	return 0
}

func TestFailuresOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	rep := runScenario(t, "failures", 42, nil)
	out := rep.Text()
	for _, needle := range []string{
		"E16: failure injection", "scripted/rackkill", "policy on",
		"rule:", "rackkill", "goodput: baseline", "remediation:",
		"availability: simulated rack outage",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("failures output missing %q:\n%s", needle, out)
		}
	}
	// The scripted storyline kills racks, so faulted epochs appear.
	if scalar(t, rep, "faults.rackkill.count") != 2 {
		t.Error("default storyline should inject two rack kills")
	}
	if scalar(t, rep, "availability.simulated") >= 1 {
		t.Error("rack kills left availability at 1")
	}
}

// The fault engine's exactness contract: measured dead rack-epochs
// equal the schedule's kill coverage, rack-epoch for rack-epoch.
func TestFailuresSimulatedOutageMatchesSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	for _, overrides := range []map[string]string{
		nil,
		{"class": "rowkill"},
		{"policy": "off"},
		{"sched": "bernoulli", "rate": "0.15", "epochs": "20"},
	} {
		rep := runScenario(t, "failures", 42, overrides)
		sim := scalar(t, rep, "availability.simulated_outage")
		analytic := scalar(t, rep, "availability.schedule_analytic_outage")
		if sim != analytic {
			t.Errorf("%v: simulated outage %.6f != schedule analytic %.6f",
				overrides, sim, analytic)
		}
	}
}

func TestFailuresAllClassesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	all := []string{"rackkill", "rowkill", "flapnic", "slowcxl", "brownout",
		"pdufail", "cracfail", "hostkill"}
	for _, class := range append(all, "mix") {
		rep := runScenario(t, "failures", 42, map[string]string{"class": class})
		if rep.Text() == "" {
			t.Errorf("class %s produced no output", class)
		}
		if class == "mix" {
			// One event per class, every class recovered by horizon end.
			for _, c := range all {
				if scalar(t, rep, "faults."+c+".count") != 1 {
					t.Errorf("mix storyline missing a %s event", c)
				}
			}
		}
	}
}

// pinScalar asserts a scalar to within float-printing tolerance — the
// regression pin for figures that must not drift across PRs.
func pinScalar(t *testing.T, rep *report.Report, name string, want float64) {
	t.Helper()
	got := scalar(t, rep, name)
	tol := 1e-6 * math.Max(1, math.Abs(want))
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want the pinned %v", name, got, want)
	}
}

// The backward-compatibility contract for the crew/domain machinery:
// with unlimited crews (the default) and the independent fault classes,
// E16 reproduces the pre-crew figures exactly. These values are pinned
// from the scenario as it stood before correlated domains landed.
func TestFailuresPinnedPreCrewFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	def := runScenario(t, "failures", 42, nil)
	pinScalar(t, def, "mttr.rackkill.epochs", 1)
	pinScalar(t, def, "availability.simulated_outage", 1.0/12)
	pinScalar(t, def, "availability.simulated", 11.0/12)
	pinScalar(t, def, "replacement.moves", 11)
	pinScalar(t, def, "replacement.downtime_ms", 3.780084)
	pinScalar(t, def, "goodput.baseline", 0.9792575306688321)
	pinScalar(t, def, "policy.actions", 23)
	pinScalar(t, def, "availability.torless_rack_outage", 0.00022350437458107386)
	// Unlimited crews never queue or throttle anything by default.
	pinScalar(t, def, "fleet.wait.total_epochs", 0)
	pinScalar(t, def, "policy.throttled", 0)

	off := runScenario(t, "failures", 42, map[string]string{"policy": "off"})
	pinScalar(t, off, "mttr.rackkill.epochs", 3)
	pinScalar(t, off, "replacement.moves", 0)
	pinScalar(t, off, "availability.simulated_outage", 1.0/12)

	row := runScenario(t, "failures", 42, map[string]string{"class": "rowkill"})
	pinScalar(t, row, "mttr.rowkill.epochs", 1)
	pinScalar(t, row, "replacement.moves", 18)
	pinScalar(t, row, "availability.simulated_outage", 0.125)

	for _, class := range []string{"slowcxl", "flapnic"} {
		rep := runScenario(t, "failures", 42, map[string]string{"class": class})
		pinScalar(t, rep, "mttr."+class+".epochs", 1)
		pinScalar(t, rep, "replacement.moves", 0)
		pinScalar(t, rep, "availability.simulated_outage", 0)
	}
}

// Finite crews at the scenario level: the mix storyline's staggered
// faults outnumber a single crew, so repairs queue — waiting time and
// queue depth show up in the report where unlimited crews show none.
func TestFailuresCrewsQueueRepairs(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	free := runScenario(t, "failures", 42, map[string]string{"class": "mix"})
	one := runScenario(t, "failures", 42, map[string]string{"class": "mix", "crews": "1"})
	if scalar(t, free, "fleet.wait.total_epochs") != 0 {
		t.Error("unlimited crews recorded waiting time")
	}
	if scalar(t, free, "fleet.queue.peak") != 0 {
		t.Error("unlimited crews recorded queue depth")
	}
	if scalar(t, one, "fleet.wait.total_epochs") == 0 {
		t.Error("crews=1 under the mix storm recorded no waiting time")
	}
	if scalar(t, one, "fleet.queue.peak") == 0 {
		t.Error("crews=1 under the mix storm never built a queue")
	}
	if !strings.Contains(one.Text(), "repair crews: 1") {
		t.Error("report does not state the crew count")
	}
	if !strings.Contains(free.Text(), "unlimited repair crews") {
		t.Error("report does not state unlimited crews")
	}
}

// The headline policy-threshold sweep: tighter rate limits trade
// availability for a smaller per-heartbeat re-placement bill, and the
// detailed sections report the sweep row -policy names (unlimited for
// on, off for off) exactly.
func TestFailuresPolicySweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	rep := runScenario(t, "failures", 42, nil)
	offAvail := scalar(t, rep, "sweep.off.availability")
	unlAvail := scalar(t, rep, "sweep.unlimited.availability")
	if offAvail > unlAvail {
		t.Errorf("policy off availability %.4f above unlimited %.4f", offAvail, unlAvail)
	}
	if scalar(t, rep, "sweep.off.moves") != 0 {
		t.Error("policy off variant recorded moves")
	}
	for _, key := range []string{"limit1", "limit2"} {
		if scalar(t, rep, "sweep."+key+".moves") > scalar(t, rep, "sweep.unlimited.moves") {
			t.Errorf("rate-limited variant %s moved more than unlimited", key)
		}
	}
	off := runScenario(t, "failures", 42, map[string]string{"policy": "off"})
	for _, c := range []struct {
		rep *report.Report
		key string
	}{{rep, "unlimited"}, {off, "off"}} {
		for _, pair := range [][2]string{
			{"availability.simulated", "availability"},
			{"replacement.moves", "moves"},
		} {
			if got, want := scalar(t, c.rep, pair[0]), scalar(t, c.rep, "sweep."+c.key+"."+pair[1]); got != want {
				t.Errorf("%s = %v, want sweep.%s.%s = %v", pair[0], got, c.key, pair[1], want)
			}
		}
	}
}

// Acceptance criterion: with remediation on, rack-kill MTTR is
// measurably lower than with it off.
func TestFailuresPolicyCutsMTTR(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	on := runScenario(t, "failures", 42, nil)
	off := runScenario(t, "failures", 42, map[string]string{"policy": "off"})
	mOn := scalar(t, on, "mttr.rackkill.epochs")
	mOff := scalar(t, off, "mttr.rackkill.epochs")
	if mOn >= mOff {
		t.Fatalf("policy=on MTTR %.2f not below policy=off %.2f", mOn, mOff)
	}
	if scalar(t, on, "replacement.moves") == 0 {
		t.Error("policy=on recorded no re-placement moves")
	}
	if scalar(t, off, "policy.actions") != 0 {
		t.Error("policy=off applied policy actions")
	}
}

// E16 must be byte-identical at any worker count, like every scenario.
func TestFailuresWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	a := runScenario(t, "failures", 42, map[string]string{"workers": "1", "class": "mix"}).Text()
	b := runScenario(t, "failures", 42, map[string]string{"workers": "4", "class": "mix"}).Text()
	if a != b {
		t.Fatal("failures output differs between workers=1 and workers=4")
	}
}

func TestFailuresRateValidation(t *testing.T) {
	s, _ := Lookup("failures")
	p := s.NewParams()
	if err := p.Set("rate", "9999"); err != nil {
		t.Fatalf("rate parse rejected: %v", err)
	}
	if _, err := s.Run(context.Background(), p); err == nil {
		t.Fatal("rate far above the fleet accepted")
	}
}

// Satellite: the convergence test. The bernoulli schedule is the
// memoryless single-rack-failure process at a kill probability scaled
// up from the torless closed form (the raw hardware figure is too rare
// to observe in a short run); across many seeds the mean simulated
// outage must converge to that analytic probability.
func TestFailuresBernoulliConvergesToAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("high-seed-count convergence run in -short mode")
	}
	torOut := torless.AnalyticRackOutage(torless.Config{
		PodSize:    16,
		PooledNICs: 4,
		Probs:      torless.DefaultFailureProbs(),
	})
	if torOut <= 0 || torOut >= 0.01 {
		t.Fatalf("torless analytic outage %.6f outside the expected rare-event range", torOut)
	}
	// Scale the rare closed form up to an observable per-epoch kill
	// probability; the expectation scales linearly with it.
	amp := 0.1 / torOut
	p := amp * torOut // == 0.1 by construction, derived from the closed form
	var sum float64
	const seeds = 8
	for seed := int64(1); seed <= seeds; seed++ {
		rep := runScenario(t, "failures", seed, map[string]string{
			"sched": "bernoulli", "policy": "off",
			"racks": "4", "rows": "1", "epochs": "30",
			"rate": "0.1",
		})
		sim := scalar(t, rep, "availability.simulated_outage")
		analytic := scalar(t, rep, "availability.schedule_analytic_outage")
		if sim != analytic {
			t.Fatalf("seed %d: simulated %.6f != schedule analytic %.6f", seed, sim, analytic)
		}
		sum += sim
	}
	mean := sum / seeds
	// 960 rack-epoch coins at p=0.1: ±0.03 is a ~3-sigma band (and the
	// run is fully deterministic, so a pass is a pass forever).
	if diff := mean - p; diff < -0.03 || diff > 0.03 {
		t.Fatalf("mean simulated outage %.4f over %d seeds not within 0.03 of analytic %.4f",
			mean, seeds, p)
	}
}
