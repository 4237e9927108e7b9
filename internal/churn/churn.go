// Package churn is the tenant arrival/departure workload engine: the
// missing half of the fleet's demand model. The rotating-hotspot skew
// (internal/workload) varies how much a fixed population demands;
// churn varies who exists at all — tenants arrive under a seeded
// Poisson or bursty process, live geometric or heavy-tailed Pareto
// lifetimes, and leave — which is what makes admission a control-plane
// operation worth measuring ("how fast can the control plane admit at
// millions-of-users scale?", the ROADMAP's open question).
//
// The package is built around one immutable artifact, the Trace: an
// epoch-ordered schedule of arrive/depart events. Generated schedules
// (Generate) and recorded ones (ParseTrace) both materialize into a
// Trace, so the consumer — the cluster's admission path — cannot tell
// them apart; that indistinguishability is what makes replay
// byte-identical to generation. Traces serialize to a compact text
// format (one event per line, see ParseTrace) whose writer emits a
// canonical form: write∘parse is idempotent, pinned by FuzzParseTrace.
package churn

import (
	"fmt"
	"sort"
)

// Op is the event kind.
type Op int

const (
	// OpArrive introduces a tenant: it carries the tenant's baseline
	// demand and home rack.
	OpArrive Op = iota
	// OpDepart retires a tenant introduced by an earlier OpArrive.
	OpDepart
)

// String returns the op keyword the trace format uses.
func (o Op) String() string {
	if o == OpDepart {
		return "depart"
	}
	return "arrive"
}

// Event is one tenant lifecycle transition.
type Event struct {
	// Epoch is when the event takes effect (>= 0).
	Epoch int
	Op    Op
	// Tenant is the tenant name. Names are single-use: a departed
	// tenant's name is never rearrived, so downstream bookkeeping can
	// key on it for a whole run.
	Tenant string
	// Gbps is the tenant's baseline demand (arrivals only, > 0).
	Gbps float64
	// Home is the tenant's home rack (arrivals only, >= 0).
	Home int
}

// line renders the event's canonical trace line (no newline).
func (e Event) line() string {
	if e.Op == OpDepart {
		return fmt.Sprintf("%d depart %s", e.Epoch, e.Tenant)
	}
	return fmt.Sprintf("%d arrive %s %s %d", e.Epoch, e.Tenant, formatGbps(e.Gbps), e.Home)
}

// Source is a replayable stream of churn events consumed by the
// cluster's admission path. Both generated and recorded schedules are
// Traces, so there is exactly one implementation — the interface
// exists so the cluster depends on the stream shape, not on trace
// mechanics.
type Source interface {
	// At returns the events taking effect in one epoch, in canonical
	// order: departures first (they free the capacity the epoch's
	// arrivals compete for), then arrivals, each in schedule order.
	// The returned slice is shared; callers must not mutate it.
	At(epoch int) []Event
}

// Trace is an immutable, validated event schedule. Build one with
// Generate or ParseTrace.
type Trace struct {
	// events is sorted by (epoch, departures-first, schedule order).
	events []Event
}

var _ Source = (*Trace)(nil)

// At implements Source by binary search over the sorted schedule.
func (t *Trace) At(epoch int) []Event {
	lo := sort.Search(len(t.events), func(i int) bool { return t.events[i].Epoch >= epoch })
	hi := sort.Search(len(t.events), func(i int) bool { return t.events[i].Epoch > epoch })
	return t.events[lo:hi]
}

// Len returns the event count.
func (t *Trace) Len() int { return len(t.events) }

// Horizon returns the last event's epoch plus one (0 for an empty
// trace) — the minimum epoch count that plays the whole schedule.
func (t *Trace) Horizon() int {
	if len(t.events) == 0 {
		return 0
	}
	return t.events[len(t.events)-1].Epoch + 1
}

// Validate checks the trace against a fleet shape: every arrival's
// home rack must exist. Structural invariants (ordering, liveness,
// demand bounds) are established at construction and need no recheck.
func (t *Trace) Validate(racks int) error {
	for _, e := range t.events {
		if e.Op == OpArrive && e.Home >= racks {
			return fmt.Errorf("%w: %s arrives in rack %d of a %d-rack fleet",
				ErrBadTrace, e.Tenant, e.Home, racks)
		}
	}
	return nil
}

// Stats summarizes a trace for reports. Every field is derived from
// the schedule alone, so a generated trace and its recording produce
// identical digests — the replay byte-identity contract depends on it.
type Stats struct {
	Arrivals   int
	Departures int
	// PeakLive is the maximum concurrently-live tenant count.
	PeakLive int
	// EndLive is how many tenants never depart within the schedule.
	EndLive int
	// MeanGbps is the mean arrival baseline demand (0 if no arrivals).
	MeanGbps float64
	// MaxHome is the largest home rack index (-1 if no arrivals).
	MaxHome int
}

// Stats computes the trace digest.
func (t *Trace) Stats() Stats {
	s := Stats{MaxHome: -1}
	live, sum := 0, 0.0
	for _, e := range t.events {
		if e.Op == OpDepart {
			s.Departures++
			live--
			continue
		}
		s.Arrivals++
		sum += e.Gbps
		if e.Home > s.MaxHome {
			s.MaxHome = e.Home
		}
		live++
		if live > s.PeakLive {
			s.PeakLive = live
		}
	}
	s.EndLive = s.Arrivals - s.Departures
	if s.Arrivals > 0 {
		s.MeanGbps = sum / float64(s.Arrivals)
	}
	return s
}

// newTrace canonicalizes and validates a schedule: events are sorted
// by (epoch, departures-first) keeping schedule order within each
// class, then checked for the structural invariants every Trace
// guarantees — non-negative epochs, positive finite demand, valid
// lifecycles (arrive before depart, strictly earlier epoch, names
// single-use).
func newTrace(events []Event) (*Trace, error) {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Epoch != sorted[j].Epoch {
			return sorted[i].Epoch < sorted[j].Epoch
		}
		return sorted[i].Op == OpDepart && sorted[j].Op == OpArrive
	})
	// Liveness walk in canonical order. Maps are lookup-only (never
	// ranged), so they cannot leak nondeterminism.
	arrived := make(map[string]int, len(sorted)) // name -> arrival epoch
	departed := make(map[string]bool)
	for _, e := range sorted {
		if err := checkEvent(e); err != nil {
			return nil, err
		}
		switch e.Op {
		case OpArrive:
			if _, dup := arrived[e.Tenant]; dup {
				return nil, fmt.Errorf("%w: tenant %s arrives twice (names are single-use)",
					ErrBadTrace, e.Tenant)
			}
			arrived[e.Tenant] = e.Epoch
		default:
			at, ok := arrived[e.Tenant]
			if !ok || departed[e.Tenant] {
				return nil, fmt.Errorf("%w: depart of tenant %s which is not live at epoch %d",
					ErrBadTrace, e.Tenant, e.Epoch)
			}
			if e.Epoch <= at {
				return nil, fmt.Errorf("%w: tenant %s departs at epoch %d without living a full epoch (arrived %d)",
					ErrBadTrace, e.Tenant, e.Epoch, at)
			}
			departed[e.Tenant] = true
		}
	}
	return &Trace{events: sorted}, nil
}
