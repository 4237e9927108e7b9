// Package spine instantiates the inter-rack edges of the topology tree
// as queued simulated links — the layer between internal/topo (which
// prices a path analytically) and the cluster control plane (which
// decides who crosses it). Where the topology answers "what would this
// path cost, alone?", the spine answers "what does it cost now, with
// everyone else on the wire?".
//
// The model is one link per tree edge above the racks: every rack owns
// an uplink into its row spine, every row owns an uplink into the core.
// A link is a full-duplex bundle with a single FIFO service cursor (the
// netsim egressBusy idiom, one level up) and a capacity in Gbps:
//
//   - Discrete transfers (migrations, drain streams, repatriations)
//     queue behind earlier transfers on every link their path crosses,
//     then stream at the path's bottleneck bandwidth from topo.Path.
//     Completions are ordered by the spine's own sim.Engine, so
//     same-epoch transfers resolve in deterministic (time, seq) order.
//   - Steady-state spilled demand is fluid: the cluster registers each
//     off-home tenant's Gbps on the links its home<->placement path
//     crosses, then reads back a proportional fair-share grant. Grants
//     are order-independent (each flow is scaled by the most
//     oversubscribed link it crosses), so the ledger conserves link
//     capacity and stays byte-identical at any worker count.
//
// Capacity comes from the oversubscription ratio: each edge carries the
// aggregate pooled line rate beneath it divided by Config.Oversub,
// capped by the topology link's own bandwidth — so a heterogeneous 40G
// rack's bundle really is smaller than its 100G siblings'. Oversub 0
// keeps every link non-blocking (capacity 0 = unconstrained): no
// queueing, no throttling, and every figure reduces exactly to the
// analytic path costs (the legacy behavior, pinned by the all_seed42
// golden). This package alone knows what non-blocking means: callers
// run the same ledger passes on every spine, and on unconstrained links
// FlowFits always holds, GrantRate grants full demand, and Transfer
// never waits.
//
// Brownouts live here too: each one scales the bandwidth of the paths
// it covers. Overlapping brownouts compose multiplicatively and are
// floored at MinPathScale, so stacked faults degrade a path without
// ever driving its bandwidth to ~0 (and TransferTime to absurdity).
package spine

import (
	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
	"cxlpool/internal/topo"
)

// MinPathScale floors the composed bandwidth degradation of stacked
// brownouts covering one path. Without the floor, a pile-up of
// overlapping brownouts multiplies scales toward zero and a single
// migration's TransferTime grows unboundedly — the divide-by-~0
// failure mode the floor exists to clamp.
const MinPathScale = 0.01

// Config sizes a spine network.
type Config struct {
	// Oversub is the fabric oversubscription ratio: each inter-rack
	// edge's capacity is the aggregate pooled line rate beneath it
	// divided by this ratio (capped by the topology link's own
	// bandwidth). 1 is full bisection; 0 (or negative) disables
	// contention entirely — links are non-blocking and every flow is
	// serviced at the analytic path bottleneck, the legacy behavior.
	Oversub float64
}

// Brownout is one active partial fabric degradation: the bandwidth of
// every path it covers scales by Scale until the fault repairs.
type Brownout struct {
	Src, Dst int
	Scale    float64
}

// covers reports whether the brownout degrades the a<->b path: a
// same-row brownout pins exactly its rack pair (both directions); a
// cross-row one browns the whole row-to-row bundle, so every rack pair
// spanning those rows is taxed.
func (b Brownout) covers(t *topo.Topology, a, c int) bool {
	if (a == b.Src && c == b.Dst) || (a == b.Dst && c == b.Src) {
		return true
	}
	if t.SameRow(b.Src, b.Dst) {
		return false
	}
	ra, rc := t.RowOf(a), t.RowOf(c)
	rs, rd := t.RowOf(b.Src), t.RowOf(b.Dst)
	return (ra == rs && rc == rd) || (ra == rd && rc == rs)
}

// link is one inter-rack edge: a FIFO service cursor for discrete
// transfers, a fluid demand ledger for steady-state spill traffic, and
// cumulative accounting for both.
type link struct {
	name string
	// capGbps is the contention capacity (0 = unconstrained).
	capGbps float64

	// Discrete-transfer state: busy is the FIFO cursor (next free
	// instant), inflight counts transfers whose occupancy has not yet
	// drained, queuedBytes holds bytes accepted but not yet in service.
	busy        sim.Time
	inflight    int
	queuedBytes int64

	// Cumulative transfer accounting.
	transfers    uint64
	carriedBytes uint64
	waitTotal    sim.Duration
	busyTotal    sim.Duration

	// Fluid state: demandGbps is the current epoch's registered spill
	// demand; the rest aggregates per-epoch utilization.
	demandGbps     float64
	peakDemandGbps float64
	peakUtil       float64
	utilSum        float64
	peakQueuedGbps float64
	epochs         int
}

// LinkStats is one link's read-only accounting snapshot.
type LinkStats struct {
	// Name identifies the edge: "rack3.up" or "row1.up".
	Name string
	// CapGbps is the contention capacity (0 = unconstrained).
	CapGbps float64
	// Discrete transfers carried, their bytes, total queueing wait, and
	// total service occupancy.
	Transfers    uint64
	CarriedBytes uint64
	WaitTotal    sim.Duration
	BusyTotal    sim.Duration
	// Inflight and QueuedBytes are the live transfer backlog at the
	// last AdvanceTo horizon.
	Inflight    int
	QueuedBytes int64
	// Fluid-demand aggregates across closed epochs.
	PeakDemandGbps float64
	PeakUtil       float64
	MeanUtil       float64
	PeakQueuedGbps float64
}

// EpochSummary is the fleet-wide fluid view of one closed epoch.
type EpochSummary struct {
	// MaxUtil is the highest demand/capacity ratio across finite links.
	MaxUtil float64
	// QueuedGbps sums each finite link's demand in excess of capacity.
	QueuedGbps float64
}

// Network is the instantiated spine: one queued link per inter-rack
// tree edge, plus the precomputed per-rack-pair paths every lookup and
// transfer routes through. All methods are control-plane-only (single
// goroutine between rack epochs), matching the cluster's determinism
// contract.
type Network struct {
	topo *topo.Topology
	eng  *sim.Engine

	links    []link
	rackLink []int // rack index -> its uplink's link id
	rowLink  []int // row index -> its uplink's link id

	// pathLinks[src*racks+dst] lists the link ids the src->dst path
	// crosses; basePaths holds the brownout-free topo aggregation.
	// Both are precomputed so per-admission lookups never walk the
	// tree or allocate.
	pathLinks [][]int
	basePaths []topo.Path

	brownouts []Brownout
}

// New builds the spine for a topology. With cfg.Oversub <= 0 every
// link is non-blocking (the legacy analytic fabric); otherwise each
// edge's capacity is the pooled aggregate beneath it over the ratio,
// capped by the topology link's own bandwidth.
func New(t *topo.Topology, cfg Config) *Network {
	n := &Network{topo: t, eng: sim.NewEngine(0)}
	racks := t.RackCount()
	n.rackLink = make([]int, racks)
	rowAgg := make([]float64, t.RowCount())
	for i, d := range t.Racks() {
		n.rackLink[i] = len(n.links)
		n.links = append(n.links, link{
			name:    d.Name + ".up",
			capGbps: edgeCapacity(cfg.Oversub, d.Spec.CapacityGbps(), d.Uplink),
		})
		rowAgg[t.RowOf(i)] += d.Spec.CapacityGbps()
	}
	n.rowLink = make([]int, t.RowCount())
	for r, d := range t.Rows() {
		n.rowLink[r] = len(n.links)
		n.links = append(n.links, link{
			name:    d.Name + ".up",
			capGbps: edgeCapacity(cfg.Oversub, rowAgg[r], d.Uplink),
		})
	}
	n.pathLinks = make([][]int, racks*racks)
	n.basePaths = make([]topo.Path, racks*racks)
	for i := 0; i < racks; i++ {
		for j := 0; j < racks; j++ {
			if i == j {
				continue
			}
			k := i*racks + j
			n.basePaths[k] = t.RackPath(i, j)
			ids := []int{n.rackLink[i], n.rackLink[j]}
			if t.RowOf(i) != t.RowOf(j) {
				ids = append(ids, n.rowLink[t.RowOf(i)], n.rowLink[t.RowOf(j)])
			}
			n.pathLinks[k] = ids
		}
	}
	return n
}

// edgeCapacity prices one edge: subtree pooled aggregate over the
// ratio, capped by the link's own bundle bandwidth. 0 = unconstrained.
func edgeCapacity(oversub, aggGbps float64, l topo.Link) float64 {
	if oversub <= 0 {
		return 0
	}
	cap := aggGbps / oversub
	if lb := float64(l.Bandwidth) * 8; lb > 0 && lb < cap {
		cap = lb
	}
	return cap
}

// LinkStats returns every link's accounting snapshot in link order
// (racks first, then rows).
func (n *Network) LinkStats() []LinkStats {
	out := make([]LinkStats, len(n.links))
	for i := range n.links {
		l := &n.links[i]
		s := LinkStats{
			Name: l.name, CapGbps: l.capGbps,
			Transfers: l.transfers, CarriedBytes: l.carriedBytes,
			WaitTotal: l.waitTotal, BusyTotal: l.busyTotal,
			Inflight: l.inflight, QueuedBytes: l.queuedBytes,
			PeakDemandGbps: l.peakDemandGbps, PeakUtil: l.peakUtil,
			PeakQueuedGbps: l.peakQueuedGbps,
		}
		if l.epochs > 0 {
			s.MeanUtil = l.utilSum / float64(l.epochs)
		}
		out[i] = s
	}
	return out
}

// SetBrownouts replaces the active brownout set (the fault engine's
// recompute-from-open-faults publish).
func (n *Network) SetBrownouts(bs []Brownout) {
	n.brownouts = append(n.brownouts[:0], bs...)
}

// pathScale composes every brownout covering the path. Scales multiply
// — two half-bandwidth brownouts leave a quarter — and the product is
// floored at MinPathScale so stacked faults cannot zero the path.
func (n *Network) pathScale(src, dst int) float64 {
	scale := 1.0
	for _, b := range n.brownouts {
		if b.covers(n.topo, src, dst) {
			scale *= b.Scale
		}
	}
	if scale < MinPathScale {
		scale = MinPathScale
	}
	return scale
}

// Path is the brownout-scaled analytic aggregation for a rack pair:
// the topo tree walk with active brownouts applied to the bottleneck
// bandwidth. Every fabric cost model routes through here, so a
// brownout is felt by migrations, drains, and spill penalties alike.
func (n *Network) Path(src, dst int) topo.Path {
	if src < 0 || dst < 0 || src == dst {
		return topo.Path{}
	}
	p := n.basePaths[src*len(n.rackLink)+dst]
	if len(n.brownouts) == 0 {
		return p
	}
	if scale := n.pathScale(src, dst); scale < 1 {
		p.Bandwidth = mem.GBps(float64(p.Bandwidth) * scale)
	}
	return p
}

// Transfer streams `bytes` of state from rack src to rack dst starting
// at `now`: FIFO behind every earlier transfer still occupying a
// crossed link, then one control round trip plus serialization at the
// (brownout-scaled) path bottleneck. Returns the queueing wait and the
// total src->dst cost (wait + RTT + serialization). On non-blocking
// links the wait is always zero and the total is exactly the analytic
// migration cost. Completion bookkeeping (inflight, queued bytes) is
// scheduled on the spine's engine and lands at the next AdvanceTo.
func (n *Network) Transfer(now sim.Time, src, dst, bytes int) (wait, total sim.Duration) {
	if src < 0 || dst < 0 || src == dst {
		return 0, 0
	}
	p := n.Path(src, dst)
	serve := p.RTT() + p.Bandwidth.TransferTime(bytes)
	ids := n.pathLinks[src*len(n.rackLink)+dst]
	start := now
	for _, id := range ids {
		if l := &n.links[id]; l.capGbps > 0 && l.busy > start {
			start = l.busy
		}
	}
	wait = start - now
	for _, id := range ids {
		l := &n.links[id]
		l.transfers++
		l.carriedBytes += uint64(bytes)
		l.waitTotal += wait
		if l.capGbps <= 0 {
			continue
		}
		// Occupy the link for the transfer's serialization at the
		// link's own capacity; later transfers crossing it queue
		// behind this cursor.
		occ := mem.GBps(l.capGbps / 8).TransferTime(bytes)
		if occ < 1 {
			occ = 1
		}
		if l.busy < start {
			l.busy = start
		}
		l.busy += occ
		l.busyTotal += occ
		l.inflight++
		l.queuedBytes += int64(bytes)
		freeAt, b := l.busy, int64(bytes)
		n.eng.At(start, func() { l.queuedBytes -= b })
		n.eng.At(freeAt, func() { l.inflight-- })
	}
	return wait, wait + serve
}

// AdvanceTo drains the spine engine to the given horizon, landing the
// service-start and completion bookkeeping of every transfer due by
// then. The cluster calls it at each epoch boundary.
func (n *Network) AdvanceTo(t sim.Time) error {
	_, err := n.eng.RunUntil(t)
	return err
}

// BeginFlows resets the fluid demand ledger for a fresh pass. The
// cluster rebuilds the ledger from the tenant population whenever it
// needs a congestion view — before a placement ranking, an admission
// probe, or the epoch's grant computation — so the ledger is always a
// pure function of current placements.
func (n *Network) BeginFlows() {
	for i := range n.links {
		n.links[i].demandGbps = 0
	}
}

// AddFlow registers one spilled tenant's steady demand on every link
// its home<->placement path crosses.
func (n *Network) AddFlow(src, dst int, gbps float64) {
	if src < 0 || dst < 0 || src == dst || gbps <= 0 {
		return
	}
	for _, id := range n.pathLinks[src*len(n.rackLink)+dst] {
		n.links[id].demandGbps += gbps
	}
}

// FlowFits reports whether a new flow of gbps fits the src->dst path
// without oversubscribing any finite link beyond its capacity, given
// the demand currently in the ledger. Always true on a non-blocking
// spine.
func (n *Network) FlowFits(src, dst int, gbps float64) bool {
	if src < 0 || dst < 0 || src == dst {
		return true
	}
	for _, id := range n.pathLinks[src*len(n.rackLink)+dst] {
		l := &n.links[id]
		if l.capGbps > 0 && l.demandGbps+gbps > l.capGbps {
			return false
		}
	}
	return true
}

// GrantRate returns the rate a flow of gbps is actually granted across
// the src->dst path under the closed ledger: proportional fair share
// on the most oversubscribed link crossed (each flow through a link at
// demand D > capacity C is scaled by C/D, so grants conserve link
// capacity and are independent of evaluation order), additionally
// capped at the brownout-scaled path bottleneck. Demand at or under
// capacity is granted in full, and so is any flow whose path crosses no
// finite link: a non-blocking spine never throttles steady demand, not
// even on a browned path (brownouts still slow its transfers).
func (n *Network) GrantRate(src, dst int, gbps float64) float64 {
	if src < 0 || dst < 0 || src == dst || gbps <= 0 {
		return gbps
	}
	share, finite := 1.0, false
	for _, id := range n.pathLinks[src*len(n.rackLink)+dst] {
		l := &n.links[id]
		if l.capGbps <= 0 {
			continue
		}
		finite = true
		if l.demandGbps > l.capGbps {
			if s := l.capGbps / l.demandGbps; s < share {
				share = s
			}
		}
	}
	if !finite {
		return gbps
	}
	g := gbps * share
	if bw := float64(n.Path(src, dst).Bandwidth) * 8; bw > 0 && g > bw {
		g = bw
	}
	return g
}

// CloseFlows books the current ledger as one epoch's utilization
// sample on every link and returns the fleet-wide summary.
func (n *Network) CloseFlows() EpochSummary {
	var s EpochSummary
	for i := range n.links {
		l := &n.links[i]
		l.epochs++
		if l.demandGbps > l.peakDemandGbps {
			l.peakDemandGbps = l.demandGbps
		}
		if l.capGbps <= 0 {
			continue
		}
		u := l.demandGbps / l.capGbps
		l.utilSum += u
		if u > l.peakUtil {
			l.peakUtil = u
		}
		if u > s.MaxUtil {
			s.MaxUtil = u
		}
		if q := l.demandGbps - l.capGbps; q > 0 {
			s.QueuedGbps += q
			if q > l.peakQueuedGbps {
				l.peakQueuedGbps = q
			}
		}
	}
	return s
}
