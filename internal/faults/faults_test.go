package faults

import (
	"errors"
	"math"
	"testing"
)

func TestClassParseRoundtrip(t *testing.T) {
	if len(Classes()) != ClassCount {
		t.Fatalf("Classes() has %d entries, ClassCount = %d", len(Classes()), ClassCount)
	}
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("ParseClass(%q) = %v, want %v", c.String(), got, c)
		}
	}
	if _, err := ParseClass("meteor"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("ParseClass(meteor) = %v, want ErrInvalid", err)
	}
}

func TestEventValidateBounds(t *testing.T) {
	fleet := Fleet{Racks: 4, Rows: 2, PDUs: 2, HostsPerRack: func(int) int { return 3 }}
	for _, tc := range []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"rackkill ok", Event{Class: RackKill, At: 0, Duration: 1, Rack: 3}, true},
		{"rackkill out of fleet", Event{Class: RackKill, At: 0, Duration: 1, Rack: 4}, false},
		{"negative at", Event{Class: RackKill, At: -1, Duration: 1}, false},
		{"zero duration", Event{Class: RackKill, At: 0, Duration: 0}, false},
		{"rowkill ok", Event{Class: RowKill, At: 2, Duration: 2, Row: 1}, true},
		{"rowkill out of fleet", Event{Class: RowKill, At: 2, Duration: 2, Row: 2}, false},
		{"severity at 1", Event{Class: SlowCXL, At: 0, Duration: 1, Rack: 0, Severity: 1}, false},
		{"brownout ok", Event{Class: Brownout, At: 1, Duration: 1, Src: 0, Dst: 3}, true},
		{"brownout self-loop", Event{Class: Brownout, At: 1, Duration: 1, Src: 2, Dst: 2}, false},
		{"pdufail ok", Event{Class: PDUFail, At: 0, Duration: 1, PDU: 1}, true},
		{"pdufail out of fleet", Event{Class: PDUFail, At: 0, Duration: 1, PDU: 2}, false},
		{"cracfail ok", Event{Class: CRACFail, At: 0, Duration: 1, Row: 1}, true},
		{"cracfail out of fleet", Event{Class: CRACFail, At: 0, Duration: 1, Row: 2}, false},
		{"hostkill ok", Event{Class: HostKill, At: 0, Duration: 1, Rack: 2, Host: 2}, true},
		{"hostkill of orchestrator home", Event{Class: HostKill, At: 0, Duration: 1, Rack: 2, Host: 0}, false},
		{"hostkill out of rack", Event{Class: HostKill, At: 0, Duration: 1, Rack: 2, Host: 3}, false},
		{"unknown class", Event{Class: Class(99), At: 0, Duration: 1}, false},
	} {
		err := tc.ev.Validate(fleet)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: validation passed, want error", tc.name)
			} else if !errors.Is(err, ErrInvalid) {
				t.Errorf("%s: error %v does not wrap ErrInvalid", tc.name, err)
			}
		}
	}
}

func TestEventDefaults(t *testing.T) {
	if s := (Event{Class: SlowCXL}).Scale(); s != DefaultSlowCXLScale {
		t.Errorf("SlowCXL default scale = %g, want %g", s, DefaultSlowCXLScale)
	}
	if s := (Event{Class: Brownout}).Scale(); s != DefaultBrownoutScale {
		t.Errorf("Brownout default scale = %g, want %g", s, DefaultBrownoutScale)
	}
	if s := (Event{Class: SlowCXL, Severity: 0.7}).Scale(); s != 0.7 {
		t.Errorf("explicit severity ignored: got %g", s)
	}
	ev := Event{Class: RackKill, At: 3, Duration: 2, Rack: 1}
	if ev.RepairAt() != 5 {
		t.Errorf("RepairAt = %d, want 5", ev.RepairAt())
	}
	if ev.Target() != "rack1" {
		t.Errorf("Target = %q", ev.Target())
	}
	if got := (Event{Class: Brownout, Src: 0, Dst: 3}).Target(); got != "rack0-rack3" {
		t.Errorf("brownout Target = %q", got)
	}
}

func TestScriptedOrdering(t *testing.T) {
	s, err := Scripted(
		Event{Class: Brownout, At: 5, Duration: 1, Src: 0, Dst: 1},
		Event{Class: RackKill, At: 2, Duration: 3, Rack: 0},
		Event{Class: FlapNIC, At: 2, Duration: 1, Rack: 1}, // same epoch: keeps insertion order
	)
	if err != nil {
		t.Fatal(err)
	}
	evs := s.Events()
	if len(evs) != 3 || s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if evs[0].Class != RackKill || evs[1].Class != FlapNIC || evs[2].Class != Brownout {
		t.Fatalf("events out of order: %v", evs)
	}
	at2 := s.At(2)
	if len(at2) != 2 || at2[0].Class != RackKill {
		t.Fatalf("At(2) = %v", at2)
	}
	if s.Horizon() != 6 {
		t.Errorf("Horizon = %d, want 6 (brownout repairs at 6)", s.Horizon())
	}
	if s.Count(RackKill) != 1 || s.Count(SlowCXL) != 0 {
		t.Error("Count miscounts classes")
	}
	if _, err := Scripted(Event{Class: RackKill, At: 0, Duration: 0}); !errors.Is(err, ErrInvalid) {
		t.Fatal("Scripted accepted a zero-duration event")
	}
}

func TestScheduleValidateRejectsOutOfFleet(t *testing.T) {
	s, err := Scripted(Event{Class: RowKill, At: 0, Duration: 1, Row: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Fleet{Racks: 4, Rows: 2}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Validate = %v, want ErrInvalid", err)
	}
	// Each scope fails fast with a typed error naming the bad domain.
	for _, ev := range []Event{
		{Class: RackKill, At: 0, Duration: 1, Rack: 9},
		{Class: RowKill, At: 0, Duration: 1, Row: 9},
		{Class: PDUFail, At: 0, Duration: 1, PDU: 9},
		{Class: CRACFail, At: 0, Duration: 1, Row: 9},
		{Class: HostKill, At: 0, Duration: 1, Rack: 9, Host: 1},
	} {
		sc, err := Scripted(ev)
		if err != nil {
			t.Fatal(err)
		}
		fleet := Fleet{Racks: 4, Rows: 2, PDUs: 2, HostsPerRack: func(int) int { return 3 }}
		if err := sc.Validate(fleet); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%v schedule accepted against small fleet (err=%v)", ev.Class, err)
		}
	}
}

func TestRandomDeterministicAndInRate(t *testing.T) {
	cfg := RandomConfig{Epochs: 200, Racks: 8, Rows: 2, Rate: 0.5, Seed: 42}
	a, err := Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ae, be := a.Events(), b.Events()
	if len(ae) != len(be) {
		t.Fatalf("same seed, different event counts: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("same seed diverges at event %d: %v vs %v", i, ae[i], be[i])
		}
	}
	if err := a.Validate(Fleet{Racks: cfg.Racks, Rows: cfg.Rows}); err != nil {
		t.Fatalf("random schedule invalid for its own fleet: %v", err)
	}
	// Expected strikes = Epochs * Rate = 100; a 4-sigma band is ~±28.
	if n := a.Len(); n < 60 || n > 140 {
		t.Errorf("drew %d events, expected ~100", n)
	}
	c, err := Random(RandomConfig{Epochs: 200, Racks: 8, Rows: 2, Rate: 0.5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	ce := c.Events()
	same := len(ce) == len(ae)
	if same {
		for i := range ae {
			if ae[i] != ce[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced an identical schedule")
	}
	// Class restriction respected.
	k, err := Random(RandomConfig{Epochs: 50, Racks: 4, Rows: 1, Rate: 1,
		Classes: []Class{RackKill}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range k.Events() {
		if ev.Class != RackKill {
			t.Fatalf("restricted draw produced %v", ev.Class)
		}
	}
}

func TestBernoulliStationaryFraction(t *testing.T) {
	const epochs, racks, p = 400, 8, 0.1
	s, err := Bernoulli(epochs, racks, p, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s.Events() {
		if ev.Class != RackKill || ev.Duration != 1 {
			t.Fatalf("bernoulli drew %v, want duration-1 rack kills only", ev)
		}
	}
	rowOf := func(int) int { return 0 }
	frac := s.KillFraction(epochs, racks, rowOf, nil)
	// 3200 coins at p=0.1: sample fraction within ±0.02 of p at ~4 sigma.
	if frac < p-0.02 || frac > p+0.02 {
		t.Errorf("kill fraction %.4f far from p=%.2f", frac, p)
	}
	// Exact identity: fraction == events / (epochs*racks) since duration-1
	// kills never overlap.
	exact := float64(s.Len()) / float64(epochs*racks)
	if frac != exact {
		t.Errorf("KillFraction %.6f != event density %.6f", frac, exact)
	}
	if _, err := Bernoulli(10, 4, 1.5, 1); !errors.Is(err, ErrInvalid) {
		t.Fatal("p > 1 accepted")
	}
}

func TestScheduleRatesRejectNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"negative", -1}, {"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)},
	} {
		cfg := RandomConfig{Epochs: 4, Racks: 4, Rows: 1, Rate: tc.rate, Seed: 1}
		if _, err := Random(cfg); !errors.Is(err, ErrInvalid) {
			t.Errorf("Random(rate %s) = %v, want ErrInvalid", tc.name, err)
		}
		if _, err := Bernoulli(4, 4, tc.rate, 1); !errors.Is(err, ErrInvalid) {
			t.Errorf("Bernoulli(p %s) = %v, want ErrInvalid", tc.name, err)
		}
	}
}

func TestKillFractionCountsRowsAndOverlap(t *testing.T) {
	s, err := Scripted(
		Event{Class: RowKill, At: 0, Duration: 2, Row: 0},          // racks 0,1 for e0,e1
		Event{Class: RackKill, At: 1, Duration: 2, Rack: 0},        // overlaps e1, adds e2
		Event{Class: Brownout, At: 0, Duration: 4, Src: 0, Dst: 2}, // not a kill
	)
	if err != nil {
		t.Fatal(err)
	}
	rowOf := func(r int) int { return r / 2 }
	// 4 epochs x 4 racks = 16 rack-epochs; dead: (e0,r0)(e0,r1)(e1,r0)(e1,r1)(e2,r0) = 5.
	got := s.KillFraction(4, 4, rowOf, nil)
	if want := 5.0 / 16.0; got != want {
		t.Errorf("KillFraction = %.4f, want %.4f", got, want)
	}
	// Kills past the horizon are clipped.
	if got := s.KillFraction(1, 4, rowOf, nil); got != 2.0/4.0 {
		t.Errorf("clipped KillFraction = %.4f, want 0.5", got)
	}
}

// A pdufail covers exactly its member racks for its duration; hostkill
// and cracfail never count as dead rack-epochs.
func TestKillFractionCorrelatedDomains(t *testing.T) {
	s, err := Scripted(
		Event{Class: PDUFail, At: 0, Duration: 2, PDU: 0},            // racks 0,1 for e0,e1
		Event{Class: HostKill, At: 0, Duration: 4, Rack: 3, Host: 1}, // degraded, not dead
		Event{Class: CRACFail, At: 0, Duration: 4, Row: 1},           // degraded, not dead
	)
	if err != nil {
		t.Fatal(err)
	}
	rowOf := func(r int) int { return r / 2 }
	pduOf := func(r int) int { return r / 2 }
	got := s.KillFraction(4, 4, rowOf, pduOf)
	if want := 4.0 / 16.0; got != want {
		t.Errorf("KillFraction = %.4f, want %.4f", got, want)
	}
	// Without a PDU mapping the pdufail contributes nothing.
	if got := s.KillFraction(4, 4, rowOf, nil); got != 0 {
		t.Errorf("KillFraction without pduOf = %.4f, want 0", got)
	}
}

func TestMTTRAccounting(t *testing.T) {
	var m MTTR
	if m.Total() != 0 || m.MeanEpochs(RackKill) != 0 {
		t.Fatal("zero value not empty")
	}
	m.Record(RackKill, 1)
	m.Record(RackKill, 3)
	m.Record(Brownout, 4)
	m.Record(Class(99), 7) // out of range: ignored
	if m.Count(RackKill) != 2 || m.Count(Brownout) != 1 || m.Count(FlapNIC) != 0 {
		t.Fatalf("counts wrong: %d/%d/%d", m.Count(RackKill), m.Count(Brownout), m.Count(FlapNIC))
	}
	if got := m.MeanEpochs(RackKill); got != 2 {
		t.Errorf("MeanEpochs(RackKill) = %g, want 2", got)
	}
	if m.Total() != 3 {
		t.Errorf("Total = %d, want 3", m.Total())
	}
	// Crew-queue waits are tracked separately from repair times.
	m.RecordWait(RackKill, 0)
	m.RecordWait(RackKill, 4)
	m.RecordWait(Class(99), 7) // out of range: ignored
	if m.waitCount[RackKill] != 2 || m.waitCount[Brownout] != 0 {
		t.Fatalf("wait counts wrong: %d/%d", m.waitCount[RackKill], m.waitCount[Brownout])
	}
	if got := m.MeanWaitEpochs(RackKill); got != 2 {
		t.Errorf("MeanWaitEpochs = %g, want 2", got)
	}
	if m.TotalWaitEpochs() != 4 {
		t.Errorf("TotalWaitEpochs = %d, want 4", m.TotalWaitEpochs())
	}
}

func TestClassCrewMetadata(t *testing.T) {
	for _, c := range []Class{RackKill, RowKill, PDUFail} {
		if c.RepairPriority() != 0 {
			t.Errorf("%v: priority=%d, want kill at priority 0", c, c.RepairPriority())
		}
	}
	for _, c := range []Class{SlowCXL, Brownout, CRACFail, HostKill} {
		if c.RepairPriority() != 1 {
			t.Errorf("%v: priority=%d, want degraded at priority 1", c, c.RepairPriority())
		}
	}
	if FlapNIC.RepairPriority() != 2 {
		t.Errorf("flapnic priority = %d, want 2", FlapNIC.RepairPriority())
	}
	if (Event{Class: CRACFail}).Scale() != DefaultCRACScale {
		t.Errorf("cracfail default scale = %g, want %g", (Event{Class: CRACFail}).Scale(), DefaultCRACScale)
	}
	if got := (Event{Class: PDUFail, PDU: 2}).Target(); got != "pdu2" {
		t.Errorf("pdufail Target = %q", got)
	}
	if got := (Event{Class: CRACFail, Row: 1}).Target(); got != "crac1" {
		t.Errorf("cracfail Target = %q", got)
	}
	if got := (Event{Class: HostKill, Rack: 3, Host: 2}).Target(); got != "rack3/host2" {
		t.Errorf("hostkill Target = %q", got)
	}
}
