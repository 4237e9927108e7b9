// Package faults is the deterministic failure engine the cluster layer
// injects from: a seed-driven schedule of typed fault events — rack
// kills, whole-row (spine) death, flapping NICs, slow-CXL-device
// degradation, and partial fabric brownouts — each with a strike epoch
// and a repair epoch, plus per-fault-class MTTR accounting.
//
// The schedule is data, fully materialized at construction: scripted
// schedules are written down event by event, randomized ones are drawn
// once from a seeded stream and then behave exactly like scripted ones.
// Either way the cluster's epoch loop sees the same immutable event
// list on every run, so fault injection preserves the repo-wide
// determinism contract (byte-identical output at any worker count).
package faults

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cxlpool/internal/sim"
)

// Class is a fault class — the unit of MTTR accounting and of the
// simulated-vs-analytic availability comparison.
type Class int

// The five fault classes.
const (
	// RackKill takes a whole rack (pod + orchestrator) offline: the
	// blast radius of a ToR or pod power failure.
	RackKill Class = iota
	// RowKill takes every rack in a row offline: a spine death.
	RowKill
	// FlapNIC fails and repairs one pooled NIC repeatedly: the
	// intermittent device the per-rack monitor must keep failing over
	// around.
	FlapNIC
	// SlowCXL degrades a rack's effective capacity (slow CXL device):
	// the rack stays up but serves a fraction of its line rate.
	SlowCXL
	// Brownout scales the bandwidth of one fabric path: a partial
	// inter-rack (or inter-row) link degradation.
	Brownout
	// PDUFail is a correlated power failure: every rack sharing the
	// targeted power distribution unit dies simultaneously.
	PDUFail
	// CRACFail is a correlated cooling failure: every rack in the
	// targeted row thermally throttles to a fraction of its line rate
	// until the CRAC is repaired (cooling loss degrades, power loss
	// kills).
	CRACFail
	// HostKill takes one device host inside a rack offline: the rack's
	// engine keeps running at reduced capacity and placement sees the
	// shrunken inventory (the partial-degradation counterpart of
	// RackKill).
	HostKill

	classCount
)

// ClassCount is how many fault classes exist.
const ClassCount = int(classCount)

// Classes returns every fault class in declaration order.
func Classes() []Class {
	return []Class{RackKill, RowKill, FlapNIC, SlowCXL, Brownout, PDUFail, CRACFail, HostKill}
}

// String names the class (the spelling ParseClass accepts).
func (c Class) String() string {
	switch c {
	case RackKill:
		return "rackkill"
	case RowKill:
		return "rowkill"
	case FlapNIC:
		return "flapnic"
	case SlowCXL:
		return "slowcxl"
	case Brownout:
		return "brownout"
	case PDUFail:
		return "pdufail"
	case CRACFail:
		return "cracfail"
	case HostKill:
		return "hostkill"
	default:
		return "unknown"
	}
}

// Kills reports whether the class takes whole racks offline (the kill
// classes are what KillFraction and the dead-rack analytics count).
func (c Class) Kills() bool {
	return c == RackKill || c == RowKill || c == PDUFail
}

// RepairPriority orders the finite repair-crew queue: dead racks
// first (0), degradations second (1), flapping devices last (2). Lower
// is more urgent.
func (c Class) RepairPriority() int {
	switch c {
	case RackKill, RowKill, PDUFail:
		return 0
	case FlapNIC:
		return 2
	default:
		return 1
	}
}

// ParseClass parses a class name.
func ParseClass(s string) (Class, error) {
	for _, c := range Classes() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown fault class %q", ErrInvalid, s)
}

// ErrInvalid wraps every schedule validation failure.
var ErrInvalid = errors.New("faults: invalid fault event")

// Default severities and flap cadence, applied when an event leaves the
// knob at zero.
const (
	// DefaultSlowCXLScale is the capacity multiplier of a SlowCXL event.
	DefaultSlowCXLScale = 0.4
	// DefaultBrownoutScale is the bandwidth multiplier of a Brownout.
	DefaultBrownoutScale = 0.3
	// DefaultCRACScale is the thermal-throttle capacity multiplier a
	// CRACFail applies to every rack in the row.
	DefaultCRACScale = 0.5
	// DefaultFlaps is fail/repair cycles per epoch for FlapNIC.
	DefaultFlaps = 2
)

// Event is one fault: it strikes at epoch At and physically repairs at
// epoch At+Duration. Which target fields matter depends on the class.
type Event struct {
	Class Class
	// At is the strike epoch (fault applied after that epoch's control
	// plane has run — detection is the next heartbeat).
	At int
	// Duration is epochs until physical repair (>= 1).
	Duration int
	// Rack targets RackKill, FlapNIC, SlowCXL, and HostKill.
	Rack int
	// Row targets RowKill and CRACFail (a CRAC cools exactly one row).
	Row int
	// PDU targets PDUFail: every rack sharing the power domain dies.
	PDU int
	// Host targets HostKill: the device-host index inside the rack
	// (1..hosts-1; host 0 is the orchestrator home and stays up).
	Host int
	// Device selects the flapped NIC within the rack's pooled devices
	// (taken modulo the pool size) for FlapNIC.
	Device int
	// Src and Dst name the rack pair whose fabric path a Brownout
	// degrades; a same-row pair degrades just that path, a cross-row
	// pair degrades the whole row-to-row bundle.
	Src, Dst int
	// Severity is the multiplier a Brownout applies to path bandwidth
	// or a SlowCXL applies to rack capacity, in (0,1); zero selects the
	// class default.
	Severity float64
	// Flaps is fail/repair cycles per faulty epoch for FlapNIC (zero
	// selects DefaultFlaps).
	Flaps int
}

// RepairAt is the epoch the fault physically repairs.
func (e Event) RepairAt() int { return e.At + e.Duration }

// Scale is the event's severity with the class default applied.
func (e Event) Scale() float64 {
	if e.Severity > 0 {
		return e.Severity
	}
	switch e.Class {
	case Brownout:
		return DefaultBrownoutScale
	case CRACFail:
		return DefaultCRACScale
	}
	return DefaultSlowCXLScale
}

// Target names the faulted domain ("rack2", "row1", "pdu0", "crac1",
// "rack2/host1", "rack0-rack3").
func (e Event) Target() string {
	switch e.Class {
	case RowKill:
		return fmt.Sprintf("row%d", e.Row)
	case CRACFail:
		return fmt.Sprintf("crac%d", e.Row)
	case PDUFail:
		return fmt.Sprintf("pdu%d", e.PDU)
	case HostKill:
		return fmt.Sprintf("rack%d/host%d", e.Rack, e.Host)
	case Brownout:
		return fmt.Sprintf("rack%d-rack%d", e.Src, e.Dst)
	default:
		return fmt.Sprintf("rack%d", e.Rack)
	}
}

// String renders "rackkill rack2 @e4 (3 epochs)".
func (e Event) String() string {
	return fmt.Sprintf("%s %s @e%d (%d epochs)", e.Class, e.Target(), e.At, e.Duration)
}

// Fleet is the shape a schedule validates against: the domain counts
// of the topology the events will be bound to. Every event targeting a
// rack, row, PDU, CRAC, or host outside these bounds is a typed error
// at schedule binding — never a silent skip or a mid-run panic.
type Fleet struct {
	// Racks and Rows are the rack and row (= CRAC) counts.
	Racks, Rows int
	// PDUs is the power-domain count (0: the topology carries no PDU
	// overlay, so PDUFail events are invalid).
	PDUs int
	// HostsPerRack returns rack i's host count (host 0 is the
	// orchestrator home). Nil skips the per-rack host bound — HostKill
	// events then only need Host >= 1.
	HostsPerRack func(rack int) int
}

// Validate checks the event against a fleet shape.
func (e Event) Validate(f Fleet) error {
	if e.At < 0 || e.Duration < 1 {
		return fmt.Errorf("%w: %s needs At >= 0 and Duration >= 1", ErrInvalid, e)
	}
	if e.Severity < 0 || e.Severity >= 1 {
		return fmt.Errorf("%w: %s severity %g outside (0,1)", ErrInvalid, e, e.Severity)
	}
	switch e.Class {
	case RackKill, FlapNIC, SlowCXL, HostKill:
		if e.Rack < 0 || e.Rack >= f.Racks {
			return fmt.Errorf("%w: %s targets rack %d of %d", ErrInvalid, e, e.Rack, f.Racks)
		}
		if e.Class == HostKill {
			if e.Host < 1 {
				return fmt.Errorf("%w: %s targets host %d (host 0 is the orchestrator home)", ErrInvalid, e, e.Host)
			}
			if f.HostsPerRack != nil {
				if hosts := f.HostsPerRack(e.Rack); e.Host >= hosts {
					return fmt.Errorf("%w: %s targets host %d of %d", ErrInvalid, e, e.Host, hosts)
				}
			}
		}
	case RowKill, CRACFail:
		if e.Row < 0 || e.Row >= f.Rows {
			return fmt.Errorf("%w: %s targets row %d of %d", ErrInvalid, e, e.Row, f.Rows)
		}
	case PDUFail:
		if e.PDU < 0 || e.PDU >= f.PDUs {
			return fmt.Errorf("%w: %s targets PDU %d of %d", ErrInvalid, e, e.PDU, f.PDUs)
		}
	case Brownout:
		if e.Src < 0 || e.Src >= f.Racks || e.Dst < 0 || e.Dst >= f.Racks || e.Src == e.Dst {
			return fmt.Errorf("%w: %s needs two distinct racks in 0..%d", ErrInvalid, e, f.Racks-1)
		}
	default:
		return fmt.Errorf("%w: unknown class %d", ErrInvalid, int(e.Class))
	}
	return nil
}

// Schedule is an immutable fault event list, ordered by strike epoch
// (ties keep insertion order, so scripted storylines read top to
// bottom).
type Schedule struct {
	events []Event
}

// Scripted builds a schedule from explicit events. Basic shape checks
// (At/Duration) run here; fleet-shape checks run in Validate once the
// rack/row counts are known.
func Scripted(events ...Event) (*Schedule, error) {
	out := make([]Event, len(events))
	copy(out, events)
	for _, e := range out {
		if e.At < 0 || e.Duration < 1 {
			return nil, fmt.Errorf("%w: %s needs At >= 0 and Duration >= 1", ErrInvalid, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return &Schedule{events: out}, nil
}

// Events returns the event list in strike order.
func (s *Schedule) Events() []Event {
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Len is the event count.
func (s *Schedule) Len() int { return len(s.events) }

// At returns the events striking at an epoch, in schedule order.
func (s *Schedule) At(epoch int) []Event {
	var out []Event
	for _, e := range s.events {
		if e.At == epoch {
			out = append(out, e)
		}
	}
	return out
}

// Horizon is the epoch by which every fault has repaired.
func (s *Schedule) Horizon() int {
	h := 0
	for _, e := range s.events {
		if r := e.RepairAt(); r > h {
			h = r
		}
	}
	return h
}

// Count returns how many events of a class the schedule holds.
func (s *Schedule) Count(c Class) int {
	n := 0
	for _, e := range s.events {
		if e.Class == c {
			n++
		}
	}
	return n
}

// Validate checks every event against a fleet shape.
func (s *Schedule) Validate(f Fleet) error {
	for _, e := range s.events {
		if err := e.Validate(f); err != nil {
			return err
		}
	}
	return nil
}

// KillFraction is the exact fraction of rack-epochs in [0, epochs) that
// the schedule's kill events (RackKill, RowKill, PDUFail) cover — the
// analytic dead-rack expectation the cluster's measured outage is
// compared against under instant crews. rowOf and pduOf map a rack to
// its row and power domain (pduOf may be nil when the schedule holds no
// PDUFail events); overlapping kills on the same rack are not double
// counted. With finite repair crews the measured outage exceeds this
// figure by the queueing delay — that gap is the crews study's signal.
func (s *Schedule) KillFraction(epochs, racks int, rowOf, pduOf func(rack int) int) float64 {
	if epochs <= 0 || racks <= 0 {
		return 0
	}
	dead := make([]bool, epochs*racks)
	mark := func(rack, from, to int) {
		for e := from; e < to && e < epochs; e++ {
			if e >= 0 {
				dead[e*racks+rack] = true
			}
		}
	}
	for _, ev := range s.events {
		switch ev.Class {
		case RackKill:
			mark(ev.Rack, ev.At, ev.RepairAt())
		case RowKill:
			for r := 0; r < racks; r++ {
				if rowOf(r) == ev.Row {
					mark(r, ev.At, ev.RepairAt())
				}
			}
		case PDUFail:
			if pduOf == nil {
				continue
			}
			for r := 0; r < racks; r++ {
				if pduOf(r) == ev.PDU {
					mark(r, ev.At, ev.RepairAt())
				}
			}
		}
	}
	n := 0
	for _, d := range dead {
		if d {
			n++
		}
	}
	return float64(n) / float64(epochs*racks)
}

// RandomConfig sizes a randomized schedule.
type RandomConfig struct {
	// Epochs is the strike horizon: events strike in [0, Epochs).
	Epochs int
	// Racks and Rows describe the fleet the events target.
	Racks, Rows int
	// PDUs is the power-domain count PDUFail draws target (required
	// when Classes includes PDUFail).
	PDUs int
	// HostsPerRack bounds HostKill draws (default DefaultRandomHosts;
	// host 0 is never drawn).
	HostsPerRack int
	// Rate is the expected fault strikes per epoch, fleet-wide.
	Rate float64
	// Classes are the candidate classes (nil: all of them).
	Classes []Class
	// MinDuration and MaxDuration bound event durations in epochs
	// (defaults 1 and 3).
	MinDuration, MaxDuration int
	// Seed drives the draw.
	Seed int64
}

// DefaultRandomHosts is the per-rack host count HostKill draws assume
// when RandomConfig leaves HostsPerRack at zero (the topo default
// shape: one orchestrator home plus two device hosts).
const DefaultRandomHosts = 3

// Random draws a schedule from a seeded stream: per epoch the strike
// count is Bernoulli-split from Rate, then each strike draws a class,
// target, and duration. The result is a concrete event list — after
// construction a random schedule is indistinguishable from a scripted
// one.
func Random(cfg RandomConfig) (*Schedule, error) {
	if cfg.Epochs <= 0 || cfg.Racks <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("%w: random schedule needs epochs/racks/rows > 0", ErrInvalid)
	}
	// Written so NaN fails it; +Inf would never count down to zero.
	if !(cfg.Rate >= 0) || math.IsInf(cfg.Rate, 1) {
		return nil, fmt.Errorf("%w: rate %g must be finite and >= 0", ErrInvalid, cfg.Rate)
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = Classes()
		if cfg.PDUs <= 0 {
			// No power overlay described: drop PDUFail rather than draw
			// events a later Validate would reject.
			classes = classes[:0]
			for _, c := range Classes() {
				if c != PDUFail {
					classes = append(classes, c)
				}
			}
		}
	}
	for _, c := range classes {
		if c == PDUFail && cfg.PDUs <= 0 {
			return nil, fmt.Errorf("%w: pdufail draws need PDUs > 0", ErrInvalid)
		}
	}
	hosts := cfg.HostsPerRack
	if hosts <= 0 {
		hosts = DefaultRandomHosts
	}
	if hosts < 2 {
		return nil, fmt.Errorf("%w: hostkill draws need HostsPerRack >= 2", ErrInvalid)
	}
	minD, maxD := cfg.MinDuration, cfg.MaxDuration
	if minD <= 0 {
		minD = 1
	}
	if maxD < minD {
		maxD = minD + 2
	}
	rng := sim.NewRand(cfg.Seed*6364136223846793005 + 1442695040888963407)
	var events []Event
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Split the rate into unit coins so the expected strike count
		// per epoch is exactly Rate while staying a pure function of
		// the stream.
		for r := cfg.Rate; r > 0; r-- {
			p := r
			if p > 1 {
				p = 1
			}
			if rng.Float64() >= p {
				continue
			}
			ev := Event{
				Class:    classes[rng.Intn(len(classes))],
				At:       epoch,
				Duration: minD + rng.Intn(maxD-minD+1),
			}
			switch ev.Class {
			case RackKill, FlapNIC, SlowCXL:
				ev.Rack = rng.Intn(cfg.Racks)
				ev.Device = rng.Intn(16)
				ev.Severity = 0.3 + 0.4*rng.Float64()
			case RowKill:
				ev.Row = rng.Intn(cfg.Rows)
			case CRACFail:
				ev.Row = rng.Intn(cfg.Rows)
				ev.Severity = 0.3 + 0.4*rng.Float64()
			case PDUFail:
				ev.PDU = rng.Intn(cfg.PDUs)
			case HostKill:
				ev.Rack = rng.Intn(cfg.Racks)
				ev.Host = 1 + rng.Intn(hosts-1)
			case Brownout:
				ev.Src = rng.Intn(cfg.Racks)
				ev.Dst = (ev.Src + 1 + rng.Intn(cfg.Racks-1)) % cfg.Racks
				ev.Severity = 0.2 + 0.4*rng.Float64()
			}
			events = append(events, ev)
		}
	}
	return Scripted(events...)
}

// Bernoulli builds the memoryless single-rack-failure process: each
// epoch, independently, each rack is killed for exactly one epoch with
// probability p. Repairs land before the next epoch's strikes, so kills
// never overlap and the stationary dead-rack fraction is exactly p —
// the closed-form figure the convergence test holds the simulation to.
func Bernoulli(epochs, racks int, p float64, seed int64) (*Schedule, error) {
	if epochs <= 0 || racks <= 0 {
		return nil, fmt.Errorf("%w: bernoulli schedule needs epochs/racks > 0", ErrInvalid)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("%w: kill probability %g outside [0,1]", ErrInvalid, p)
	}
	rng := sim.NewRand(seed*2862933555777941757 + 3037000493)
	var events []Event
	for epoch := 0; epoch < epochs; epoch++ {
		for rack := 0; rack < racks; rack++ {
			if rng.Float64() < p {
				events = append(events, Event{Class: RackKill, At: epoch, Duration: 1, Rack: rack})
			}
		}
	}
	return Scripted(events...)
}

// MTTR accumulates per-class mean-time-to-recovery in epochs. Recovery
// is tenant-visible: the first heartbeat at which no tenant remains
// exposed to the fault (remediated away or physically repaired),
// recorded by the cluster's epoch loop. Alongside recoveries it tracks
// per-class repair-crew waiting time — the epochs a struck fault sat in
// the repair queue before a crew picked it up (always zero with
// unlimited crews; the queueing-delay tail is exactly what finite crews
// add on top of the scheduled repair durations). The zero value is
// ready to use.
type MTTR struct {
	count [classCount]int
	total [classCount]int

	waitCount [classCount]int
	waitTotal [classCount]int
}

// Record adds one recovery observation for a class.
func (m *MTTR) Record(c Class, epochs int) {
	if c < 0 || c >= classCount {
		return
	}
	m.count[c]++
	m.total[c] += epochs
}

// RecordWait adds one crew-assignment observation: the epochs the
// fault waited in the repair queue before service began.
func (m *MTTR) RecordWait(c Class, epochs int) {
	if c < 0 || c >= classCount {
		return
	}
	m.waitCount[c]++
	m.waitTotal[c] += epochs
}

// WaitCount returns crew assignments recorded for a class.
func (m *MTTR) WaitCount(c Class) int {
	if c < 0 || c >= classCount {
		return 0
	}
	return m.waitCount[c]
}

// MeanWaitEpochs returns the class's mean repair-queue wait in epochs
// (0 when no assignment has been recorded).
func (m *MTTR) MeanWaitEpochs(c Class) float64 {
	if c < 0 || c >= classCount || m.waitCount[c] == 0 {
		return 0
	}
	return float64(m.waitTotal[c]) / float64(m.waitCount[c])
}

// TotalWaitEpochs returns queue-wait epochs summed across classes.
func (m *MTTR) TotalWaitEpochs() int {
	n := 0
	for _, w := range m.waitTotal {
		n += w
	}
	return n
}

// Count returns recoveries recorded for a class.
func (m *MTTR) Count(c Class) int {
	if c < 0 || c >= classCount {
		return 0
	}
	return m.count[c]
}

// MeanEpochs returns the class's mean recovery time in epochs (0 when
// nothing recovered yet).
func (m *MTTR) MeanEpochs(c Class) float64 {
	if c < 0 || c >= classCount || m.count[c] == 0 {
		return 0
	}
	return float64(m.total[c]) / float64(m.count[c])
}

// Total returns recoveries recorded across every class.
func (m *MTTR) Total() int {
	n := 0
	for _, c := range m.count {
		n += c
	}
	return n
}
