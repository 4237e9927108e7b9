package cluster

import (
	"errors"
	"fmt"

	"cxlpool/internal/churn"
	"cxlpool/internal/core"
	"cxlpool/internal/metrics"
	"cxlpool/internal/sim"
)

// This file is the Router half of the Router/Reconciler split (the
// Voice Orchestrator fast-path/pool-manager shape): Admit is the
// latency-critical admission decision, taken against per-rack cached
// headroom summaries without touching any rack's orchestrator state
// beyond the single bind it commits to. Everything slow — rebalance,
// repatriation, drains, warm-pool autoscaling, and the summary refresh
// itself — lives in the background reconciler (the existing
// between-epochs machinery plus autoscale below), so admission cost
// is a cache consult plus one bind, with at most one spill probe.

// Admission latency model, in simulated time. The router serializes
// admissions (one control-plane worker), so an epoch's k-th admission
// also waits behind the first k-1 — that queueing is what pushes p99
// away from p50 under bursts.
const (
	// admitLookupCost is the summary consult + decision.
	admitLookupCost sim.Duration = 500 // ns
	// admitWarmBind is the bind cost when the target rack has a warm
	// pre-harvested slot ready; admitColdBind is the full allocation
	// path (device pick, registry update, channel setup).
	admitWarmBind sim.Duration = 5 * sim.Microsecond
	admitColdBind sim.Duration = 25 * sim.Microsecond
	// WarmSlotCap bounds each rack's warm pool: the reconciler grows
	// toward last epoch's admission count, never beyond this.
	WarmSlotCap = 2
)

// ErrAdmit is wrapped by every admission rejection, so callers can
// separate "the fleet is full" from programming errors with errors.Is.
var ErrAdmit = errors.New("cluster: admission rejected")

// RejectReason types an admission rejection.
type RejectReason int

const (
	// RejectNoCapacity: every servable rack's cached headroom is below
	// the tenant's demand at the pressure threshold.
	RejectNoCapacity RejectReason = iota
	// RejectUnservable: no rack can take placements at all (dead,
	// draining, or out-of-range home with federation off).
	RejectUnservable
	// RejectBindFailed: a rack's summary admitted the tenant but the
	// bind hit rack-local exhaustion; the reservation was rolled back.
	RejectBindFailed
	rejectReasonCount
)

// String names the reason the way the scenario's reject table prints it.
func (r RejectReason) String() string {
	switch r {
	case RejectNoCapacity:
		return "no-capacity"
	case RejectUnservable:
		return "unservable"
	case RejectBindFailed:
		return "bind-failed"
	}
	return fmt.Sprintf("reason%d", int(r))
}

// AdmitError is a typed admission rejection.
type AdmitError struct {
	Tenant string
	Reason RejectReason
}

func (e *AdmitError) Error() string {
	return fmt.Sprintf("cluster: admission of %s rejected: %s", e.Tenant, e.Reason)
}

// Unwrap marks every AdmitError as ErrAdmit.
func (e *AdmitError) Unwrap() error { return ErrAdmit }

// headroom is one rack's cached admission summary: what the router
// consults instead of the rack's live orchestrator state. The
// reconciler refreshes it between epochs; Admit charges and credits it
// incrementally as tenants come and go.
type headroom struct {
	// capGbps is effective capacity (line rate minus host-kill losses,
	// scaled by any brownout degradation).
	capGbps float64
	// usedGbps is offered demand currently placed on the rack.
	usedGbps float64
	// servable is false for dead or draining racks.
	servable bool
}

// AdmitResult describes a successful admission.
type AdmitResult struct {
	// Rack is where the tenant landed.
	Rack int
	// Spilled reports a non-home placement.
	Spilled bool
	// Warm reports that the rack had a pre-harvested warm slot.
	Warm bool
	// Latency is the modeled admission latency in simulated time,
	// including queueing behind this epoch's earlier admissions.
	Latency sim.Duration
}

// refreshSummaries rebuilds every rack's cached headroom from live
// state — the reconciler's periodic publish. Between refreshes the
// summaries drift only by the admissions and departures the router
// itself applied, so the fast path never reads rack internals.
func (c *Cluster) refreshSummaries() {
	if c.summaries == nil {
		c.summaries = make([]headroom, len(c.racks))
	}
	for i, r := range c.racks {
		c.summaries[i] = headroom{
			capGbps:  r.effCapacityGbps() * r.capScale,
			usedGbps: c.offeredGbps(i),
			servable: !r.dead && !r.draining,
		}
	}
}

// fits reports whether the summary admits demand g under the pressure
// threshold.
func (h headroom) fits(g, threshold float64) bool {
	return h.servable && h.capGbps > 0 && (h.usedGbps+g) <= threshold*h.capGbps
}

// Admit is the fast-path admission decision for one tenant: consult
// the home rack's cached summary, bind there if it fits, otherwise
// probe exactly one spill candidate: rankSpill's pick among the racks
// whose summary fits the tenant, by summary pressure (the reconciler
// ranks the same way over live state).
// On any failure the reservation charged against a summary is rolled
// back before returning, so a rejected Admit leaves every summary
// byte-identical to its pre-call state (the Bind/Harvest rollback
// discipline, one layer up). The returned error wraps ErrAdmit and
// carries a typed RejectReason.
func (c *Cluster) Admit(t *Tenant) (AdmitResult, error) {
	if t.Home < 0 || t.Home >= len(c.racks) {
		return AdmitResult{Rack: -1}, fmt.Errorf("%w: tenant %s home %d", ErrUnknownRack, t.Name, t.Home)
	}
	service := admitLookupCost
	thr := c.cfg.PressureThreshold
	home := &c.summaries[t.Home]
	if home.fits(t.gbps, thr) {
		// Reserve against the cache, then bind; a failed bind must
		// credit the reservation back (regression-pinned) before the
		// spill probe looks at the summaries.
		home.usedGbps += t.gbps
		if warm, bindCost, err := c.bindAdmit(t, t.Home); err == nil {
			return c.admitDone(AdmitResult{Rack: t.Home, Warm: warm}, service+bindCost), nil
		}
		home.usedGbps -= t.gbps
	}
	if !c.cfg.Federate {
		return c.rejectAdmit(t, service, RejectNoCapacity)
	}
	// One spill probe: the shared ranker over the cached summaries alone.
	cand := c.rankSpill(t, t.Home,
		func(i int) bool { return c.summaries[i].fits(t.gbps, thr) },
		func(i int) float64 { return c.summaries[i].usedGbps / c.summaries[i].capGbps })
	if cand < 0 {
		reason := RejectNoCapacity
		if !c.anyServable() {
			reason = RejectUnservable
		}
		return c.rejectAdmit(t, service, reason)
	}
	// The probe pays the control-plane round trip to the remote rack.
	service += c.cfg.Topo.RackPath(t.Home, cand).RTT()
	s := &c.summaries[cand]
	s.usedGbps += t.gbps
	warm, bindCost, err := c.bindAdmit(t, cand)
	if err != nil {
		s.usedGbps -= t.gbps
		return c.rejectAdmit(t, service, RejectBindFailed)
	}
	return c.admitDone(AdmitResult{Rack: cand, Spilled: true, Warm: warm}, service+bindCost), nil
}

// admitDone charges the router clock and fills in the final latency:
// queueing wait behind this epoch's earlier admission work plus the
// decision's own service time.
func (c *Cluster) admitDone(res AdmitResult, service sim.Duration) AdmitResult {
	res.Latency = c.routerClock + service
	c.routerClock += service
	c.admitLat.Record(float64(res.Latency))
	c.epochLat.Record(float64(res.Latency))
	return res
}

// rejectAdmit charges the rejected attempt's service time (rejections
// still occupy the router) and returns the typed error.
func (c *Cluster) rejectAdmit(t *Tenant, service sim.Duration, reason RejectReason) (AdmitResult, error) {
	c.routerClock += service
	c.rejects[reason]++
	return AdmitResult{Rack: -1, Latency: c.routerClock}, &AdmitError{Tenant: t.Name, Reason: reason}
}

// anyServable reports whether any cached summary takes placements.
func (c *Cluster) anyServable() bool {
	for i := range c.summaries {
		if c.summaries[i].servable {
			return true
		}
	}
	return false
}

// bindAdmit commits an admission to a rack: bind the tenant, then
// consume a warm slot if the reconciler pre-harvested one (the warm
// vNIC's device returns to the pool as the tenant takes its place).
// A failed bind changes nothing — no tenant state, no warm slot.
func (c *Cluster) bindAdmit(t *Tenant, rackIdx int) (warm bool, cost sim.Duration, err error) {
	if err := c.bind(t, rackIdx); err != nil {
		return false, 0, err
	}
	r := c.racks[rackIdx]
	if n := len(r.warm); n > 0 {
		v := r.warm[n-1]
		r.warm = r.warm[:n-1]
		// Best-effort: the warm vNIC releasing its device cannot fail
		// the admission that just succeeded.
		_ = r.Orch.Release(v.Name())
		return true, admitWarmBind, nil
	}
	return false, admitColdBind, nil
}

// admitEpoch is the router's per-epoch turn: departures first (they
// credit the summaries the epoch's arrivals compete for), then retries
// of tenants still waiting from earlier epochs, then this epoch's
// arrivals — every admission attempt serialized on the router clock.
func (c *Cluster) admitEpoch(epoch int, st *EpochStats) error {
	c.routerClock = 0
	c.epochLat.Reset()
	evs := c.cfg.Churn.At(epoch)
	for _, ev := range evs {
		if ev.Op == churn.OpDepart {
			if err := c.depart(ev.Tenant, st); err != nil {
				return err
			}
		}
	}
	// Retries in arrival order: tenants admitted-nowhere (rejected
	// arrivals, or placements a drain evicted) re-enter the router.
	for _, t := range c.tenants {
		if !t.churn || t.gone || t.rack >= 0 {
			continue
		}
		t.retries++
		st.Retried++
		c.retriedTotal++
		c.tryAdmit(t, st)
	}
	for _, ev := range evs {
		if ev.Op == churn.OpArrive {
			st.Arrivals++
			c.tryAdmit(c.newChurnTenant(ev), st)
		}
	}
	st.Live = c.live
	st.AdmitP50 = c.epochLat.Percentile(50)
	st.AdmitP95 = c.epochLat.Percentile(95)
	st.AdmitP99 = c.epochLat.Percentile(99)
	return nil
}

// tryAdmit runs one admission attempt and books the outcome. Rejected
// tenants stay unplaced and retry next epoch.
func (c *Cluster) tryAdmit(t *Tenant, st *EpochStats) {
	res, err := c.Admit(t)
	if err != nil {
		st.Rejected++
		c.rejectedTotal++
		return
	}
	st.Admitted++
	c.admittedTotal++
	c.admitsInto[res.Rack]++
	if res.Spilled {
		c.placedSpill.Add(c.racks[res.Rack].Name, 1)
	} else {
		c.placedLocal.Add(c.racks[res.Rack].Name, 1)
	}
}

// newChurnTenant materializes an arrival event into the population:
// demand capped like every tenant's, delivery attribution arrays grown
// to cover the new ordinal.
func (c *Cluster) newChurnTenant(ev churn.Event) *Tenant {
	t := &Tenant{
		Name:     ev.Tenant,
		Home:     ev.Home,
		BaseGbps: ev.Gbps,
		idx:      len(c.tenants),
		rack:     -1,
		churn:    true,
	}
	if t.BaseGbps > tenantCapGbps {
		t.BaseGbps = tenantCapGbps
	}
	t.gbps = t.BaseGbps
	t.grantGbps = t.gbps
	c.tenants = append(c.tenants, t)
	c.byName[t.Name] = t
	for _, r := range c.racks {
		r.deliveredBy = append(r.deliveredBy, 0)
	}
	c.live++
	return t
}

// depart retires a tenant: release its vNIC and credit its demand back
// to the rack's summary. Departing a tenant the router never admitted
// abandons its pending admission (the tenant gave up waiting).
func (c *Cluster) depart(name string, st *EpochStats) error {
	t, ok := c.byName[name]
	if !ok || !t.churn {
		return fmt.Errorf("cluster: departure of unknown tenant %q", name)
	}
	if t.gone {
		return fmt.Errorf("cluster: departure of already-departed tenant %q", name)
	}
	st.Departures++
	c.live--
	t.gone = true
	if t.rack < 0 {
		c.abandonedTotal++
		return nil
	}
	rack := c.racks[t.rack]
	if err := rack.Orch.Release(t.Name); err != nil {
		return fmt.Errorf("cluster: departing %s from %s: %w", t.Name, rack.Name, err)
	}
	c.summaries[t.rack].usedGbps -= t.gbps
	if c.summaries[t.rack].usedGbps < 0 {
		c.summaries[t.rack].usedGbps = 0
	}
	t.vnic, t.user, t.rack = nil, nil, -1
	t.gbps = 0
	return nil
}

// autoscale is the reconciler's pool-manager turn (the Navarch
// PoolManager shape): each rack's warm set tracks its observed
// admission rate — grow toward last epoch's admissions (capped at
// WarmSlotCap), shrink back as demand fades. Growth pre-harvests
// distinct free devices through the rack orchestrator's atomic
// Harvest; shrink releases them back to the pool.
func (c *Cluster) autoscale(st *EpochStats) {
	for i, r := range c.racks {
		target := c.admitsInto[i]
		c.admitsInto[i] = 0
		if target > WarmSlotCap {
			target = WarmSlotCap
		}
		if r.dead || r.draining {
			continue
		}
		for len(r.warm) > target {
			v := r.warm[len(r.warm)-1]
			r.warm = r.warm[:len(r.warm)-1]
			if err := r.Orch.Release(v.Name()); err == nil {
				c.warmShrinks++
				st.WarmShrink++
			}
		}
		if len(r.warm) < target {
			user, err := c.warmUser(r)
			if err != nil {
				continue
			}
			prefix := fmt.Sprintf("%s-warm%d", r.Name, r.warmSeq)
			r.warmSeq++
			vs, err := r.Orch.Harvest(user, prefix, target-len(r.warm), warmVNICConfig())
			if err != nil {
				// No free distinct device right now — the pool is the
				// fallback, not a reservation; admissions still work cold.
				continue
			}
			r.warm = append(r.warm, vs...)
			c.warmGrows += len(vs)
			st.WarmGrow += len(vs)
		}
	}
}

// warmUser is the deterministic host warm vNICs are harvested under
// (the first device host; host0 carries the sinks).
func (c *Cluster) warmUser(r *Rack) (*core.Host, error) {
	hosts := r.Pod.Hosts()
	return r.Pod.Host(hosts[1%len(hosts)])
}

// warmVNICConfig sizes warm-pool placeholders: minimal buffering — the
// slot exists to hold a device, not to carry traffic.
func warmVNICConfig() core.VNICConfig {
	return core.VNICConfig{
		BufSize:      4096,
		TxBuffers:    8,
		RxBuffers:    8,
		ChannelSlots: 64,
	}
}

// AdmissionLatency returns the cumulative admission-latency recorder
// (simulated nanoseconds per admitted tenant).
func (c *Cluster) AdmissionLatency() *metrics.Recorder { return c.admitLat }

// AdmissionTotals returns the run's admission ledger.
func (c *Cluster) AdmissionTotals() AdmissionTotals {
	return AdmissionTotals{
		Admitted:    c.admittedTotal,
		Rejected:    c.rejectedTotal,
		Retried:     c.retriedTotal,
		Abandoned:   c.abandonedTotal,
		Live:        c.live,
		WarmGrows:   c.warmGrows,
		WarmShrinks: c.warmShrinks,
	}
}

// AdmissionTotals is the cumulative admission ledger.
type AdmissionTotals struct {
	Admitted, Rejected, Retried, Abandoned int
	// Live is the currently-live churn tenant count (admitted or
	// waiting).
	Live int
	// WarmGrows/WarmShrinks count warm-pool slot transitions.
	WarmGrows, WarmShrinks int
}

// RejectCount returns the cumulative rejections for one reason.
func (c *Cluster) RejectCount(r RejectReason) int { return c.rejects[r] }

// RejectReasons lists every reason in declaration order, for stable
// report tables.
func RejectReasons() []RejectReason {
	return []RejectReason{RejectNoCapacity, RejectUnservable, RejectBindFailed}
}

// WarmSlots returns a rack's current warm-pool depth.
func (r *Rack) WarmSlots() int { return len(r.warm) }
