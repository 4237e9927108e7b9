// Package cluster federates pod-level orchestrators into a multi-rack
// control plane — the fleet-scale layer the ROADMAP's north star asks
// for. A Cluster owns N racks; each rack is a fully simulated core.Pod
// (hosts, CXL pool, ToR fabric, shared-memory channels) managed by its
// own orch.Orchestrator. The cluster layer adds what a single pod
// cannot express:
//
//   - Failure domains: a rack is the blast radius of a ToR or pod
//     failure, and the unit of maintenance (DrainRack).
//   - A declarative fleet topology (internal/topo): the cluster is a
//     tree of rows, racks, and hosts with typed links; spill
//     placements, cross-rack migrations, and drains are charged by
//     path aggregation over that tree, so federation is never free and
//     a cross-row move is dearer than a same-row one.
//   - Failure-domain-aware placement: a tenant lands in its home rack
//     while pressure allows, spills to the least-pressured
//     fewest-hops rack (same-row before cross-row) when it does not,
//     and is repatriated when home cools down.
//
// Time advances in epochs. Within an epoch every rack simulates its
// tenants' traffic packet-by-packet on its private sim.Engine; racks
// fan out across the runner worker pool, and because each rack is a
// pure function of its seed the cluster's output is byte-identical for
// any worker count. Between epochs the global orchestrator runs on one
// goroutine, reading per-rack pressure and moving tenants — mirroring,
// one level up, the publish/sweep split inside orch.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cxlpool/internal/churn"
	"cxlpool/internal/core"
	"cxlpool/internal/faults"
	"cxlpool/internal/metrics"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/orch"
	"cxlpool/internal/runner"
	"cxlpool/internal/sim"
	"cxlpool/internal/spine"
	"cxlpool/internal/topo"
	"cxlpool/internal/torless"
	"cxlpool/internal/workload"
)

// Defaults.
const (
	// DefaultEpoch is the per-round simulated horizon.
	DefaultEpoch sim.Duration = 2 * sim.Millisecond
	// pressureThreshold is the offered-demand fraction of rack NIC
	// capacity above which placement spills to a remote rack.
	pressureThreshold = 0.7
	// DefaultTenantState is the device state streamed on a cross-rack
	// migration (buffers, rings, mappings), in bytes.
	DefaultTenantState = 16 << 20
	// tenantCapGbps bounds one tenant's demand: a single flow cannot
	// drive more than roughly one pooled 100 Gbps device.
	tenantCapGbps = 80.0
	// payloadBytes is the tenant traffic payload (jumbo frames).
	payloadBytes = 8192
)

// Errors.
var (
	ErrUnknownRack  = errors.New("cluster: unknown rack")
	ErrDraining     = errors.New("cluster: rack is draining")
	ErrRackDead     = errors.New("cluster: rack is dead")
	ErrNotFederated = errors.New("cluster: federation disabled")
)

// Config sizes a cluster.
type Config struct {
	// Topo is the fleet topology: rows of racks with per-rack hardware
	// specs and typed links (nil: topo.Default() — one row of four
	// identical racks, the legacy shape).
	Topo *topo.Topology
	// TenantsPerRack is how many tenants call each rack home
	// (default 4).
	TenantsPerRack int
	// Seed drives every rack engine and the demand sampler.
	Seed int64
	// Epoch is the per-round simulated horizon (default DefaultEpoch).
	Epoch sim.Duration
	// Federate enables cross-rack spill, migration, and drains; when
	// false the cluster degenerates to isolated racks (the paper's
	// no-pooling baseline, one level up).
	Federate bool
	// Skew is the demand schedule (Racks is filled in automatically).
	Skew workload.RackSkew
	// Workers bounds parallel rack simulation (<= 0: GOMAXPROCS).
	Workers int
	// Faults is the deterministic fault schedule injected into the
	// epoch loop (nil: nothing ever breaks — the legacy behavior).
	Faults *faults.Schedule
	// Remediate holds the declarative remediation rules the global
	// orchestrator evaluates each heartbeat (nil: the policy engine is
	// off and faults are tolerated, never reacted to).
	Remediate *Remediation
	// Crews is the repair workforce: at most Crews faults are under
	// physical repair at once; the rest wait in a priority queue (dead
	// domains first) and their repair clocks only start when a crew
	// frees up. <= 0 means an unlimited workforce — service starts the
	// instant a fault strikes, the free-repair baseline.
	Crews int
	// Churn is the tenant arrival/departure schedule driving the fast
	// admission path (nil: the fixed TenantsPerRack population, the
	// legacy behavior). With a churn source, TenantsPerRack defaults
	// to 0 — the population is whatever the schedule admits.
	Churn churn.Source
	// Autoscale enables the reconciler's warm-pool manager: each rack
	// pre-harvests up to WarmSlotCap devices tracking its admission
	// rate, so admissions land warm under steady load.
	Autoscale bool
	// Oversub is the spine oversubscription ratio: each inter-rack
	// uplink's capacity is the pooled aggregate beneath it over this
	// ratio, and cross-rack traffic queues on those links. 0 (the
	// default) keeps the spine non-blocking — analytic path costs, no
	// contention, the legacy behavior.
	Oversub float64
}

func (c Config) withDefaults() Config {
	if c.Topo == nil {
		c.Topo = topo.Default()
	}
	if c.TenantsPerRack <= 0 {
		if c.Churn == nil {
			c.TenantsPerRack = 4
		} else {
			c.TenantsPerRack = 0
		}
	}
	if c.Epoch <= 0 {
		c.Epoch = DefaultEpoch
	}
	c.Skew.Racks = c.Topo.RackCount()
	return c
}

// Tenant is one pooled-NIC consumer: homed in a rack, currently placed
// in a (possibly different) rack, demanding gbps of egress.
type Tenant struct {
	Name string
	// Home is the rack the tenant's compute lives in.
	Home int
	// BaseGbps is the tenant's baseline demand; the skew schedule
	// multiplies it per epoch.
	BaseGbps float64

	idx  int     // cluster-wide ordinal (payload tag for attribution)
	gbps float64 // this epoch's demand
	// grantGbps is the rate the spine actually granted this epoch:
	// equal to gbps except for spilled tenants sharing an
	// oversubscribed uplink, whose pumps throttle to their fair share.
	grantGbps float64
	rack      int // current placement (-1: unplaced)
	vnic      *core.VirtualNIC
	user      *core.Host

	// churn marks a tenant admitted through the fast path; gone marks
	// a departed one (kept in place so ordinals stay stable); retries
	// counts re-admission attempts after rejections.
	churn   bool
	gone    bool
	retries int

	offeredBytes uint64
	sentBytes    uint64
}

// Rack returns the tenant's current rack index (-1 when unplaced).
//
//lint:allow testonly TestChaosClusterFaults checks where stranded tenants sit
func (t *Tenant) Rack() int { return t.rack }

// Traffic returns the tenant's cumulative offered and accepted bytes
// (accepted = handed to the datapath without backpressure).
func (t *Tenant) Traffic() (offered, sent uint64) { return t.offeredBytes, t.sentBytes }

// Delivered returns a tenant's cumulative bytes landed at rack sinks,
// summed across every rack it has lived in.
func (c *Cluster) Delivered(t *Tenant) uint64 {
	var sum uint64
	for _, r := range c.racks {
		if t.idx < len(r.deliveredBy) {
			sum += r.deliveredBy[t.idx]
		}
	}
	return sum
}

// Rack is one failure domain: a fully simulated pod plus its pod-level
// orchestrator.
type Rack struct {
	Name string
	Pod  *core.Pod
	Orch *orch.Orchestrator

	index    int
	sinks    []*core.VirtualNIC
	sinkNICs []string
	clock    sim.Time
	draining bool
	// drainedBy records who initiated the drain: policy reopen only
	// reverses policy drains, never an operator's.
	drainedBy drainCause
	// dead marks a killed failure domain: the orchestrator is down,
	// placement skips it, and its epochs deliver nothing.
	dead bool
	// capScale is the effective-capacity multiplier under a slow-CXL
	// degradation (1 = healthy).
	capScale float64
	// faultClearedAt is the epoch a fault targeting this rack last
	// repaired (-1: never) — the policy engine's "repaired" signal.
	faultClearedAt int
	// poolNICs are the pooled NIC handles in registration order, so
	// fault injection can flap a device without a pod lookup.
	poolNICs []*nicsim.NIC
	// nicsPerHost slices poolNICs by device host: host h (hosts[1:]
	// ordinal h-1) owns poolNICs[(h-1)*nicsPerHost : h*nicsPerHost],
	// the blast radius of a HostKill.
	nicsPerHost int
	// perNICGbps is one pooled NIC's line rate in Gbps (racks are
	// spec-uniform internally).
	perNICGbps float64
	// lostGbps is pooled capacity currently offline to host kills;
	// effective capacity is (capacityGbps - lostGbps) * capScale.
	lostGbps float64

	// warm is the reconciler-managed warm pool: pre-harvested vNICs
	// whose devices are handed to admissions at warm latency; warmSeq
	// keeps every grow's Harvest name prefix unique for the run.
	warm    []*core.VirtualNIC
	warmSeq int

	capacityGbps   float64
	deliveredBytes uint64
	// deliveredBy attributes this rack's sink deliveries to tenants by
	// cluster ordinal (read from the payload tag). Rack-local: only
	// this rack's epoch worker writes it, so a migrated tenant's
	// straggler packets are still credited without cross-rack writes.
	deliveredBy []uint64

	// payload is the rack-local traffic scratch (rack workers never
	// share state).
	payload []byte
}

// drainCause records who initiated a rack drain.
type drainCause int

const (
	drainNone drainCause = iota
	drainOperator
	drainPolicy
)

// Draining reports whether the rack is under maintenance drain.
//
//lint:allow testonly TestChaosClusterFaults checks that no tenant waits on a dead rack while a live one has room
func (r *Rack) Draining() bool { return r.draining }

// Dead reports whether the rack is currently killed by a fault.
//
//lint:allow testonly TestChaosClusterFaults checks that no tenant waits on a dead rack while a live one has room
func (r *Rack) Dead() bool { return r.dead }

// effCapacityGbps is the rack's line rate minus capacity lost to host
// kills (the shrunken inventory placement sees). Identical to
// capacityGbps while no host is down.
func (r *Rack) effCapacityGbps() float64 { return r.capacityGbps - r.lostGbps }

// Cluster is the global orchestrator.
type Cluster struct {
	cfg     Config
	racks   []*Rack
	tenants []*Tenant // stable placement/iteration order

	// spine is the simulated cross-rack datapath: every inter-rack
	// cost (spill penalty, migration, drain stream) and every active
	// brownout routes through its queued links.
	spine *spine.Network

	// Per-rack counters (first-Add order = rack order).
	placedLocal *metrics.CounterSet
	placedSpill *metrics.CounterSet
	migratedOut *metrics.CounterSet
	drained     *metrics.CounterSet
	// MigrationTime records the modeled cost of each cross-rack move.
	MigrationTime *metrics.Recorder
	// Row-aware migration split (cumulative).
	sameRowMigs  uint64
	crossRowMigs uint64

	// Fault-engine state: faults struck so far (never removed; closed
	// ones keep their recovery epoch; brownouts are published to the
	// spine), MTTR accounting, and the measured dead-rack-epoch tally
	// the analytic availability figures are checked against.
	active         []*activeFault
	mttr           faults.MTTR
	deadRackEpochs uint64
	rackEpochs     uint64
	// Remediation accounting: tenant moves the policy engine initiated,
	// their modeled re-placement downtime, and actions suppressed by
	// per-rule rate limits.
	remedMoves     int
	remedDowntime  sim.Duration
	remedThrottled int

	// Router (fast admission path) state: per-rack cached headroom
	// summaries, the name index departures resolve through, the
	// serialized router clock, and the admission ledger.
	summaries                    []headroom
	byName                       map[string]*Tenant
	routerClock                  sim.Duration
	admitLat                     *metrics.Recorder
	epochLat                     *metrics.Recorder
	admitsInto                   []int
	rejects                      [rejectReasonCount]int
	admittedTotal, rejectedTotal int
	retriedTotal, abandonedTotal int
	live                         int
	warmGrows, warmShrinks       int

	epoch int
}

// EpochStats is one epoch's per-rack accounting.
type EpochStats struct {
	Epoch   int
	HotRack int
	// Per-rack series, rack order.
	OfferedGbps   []float64
	DeliveredGbps []float64
	Pressure      []float64 // offered demand / capacity at epoch start
	MeasuredLoad  []float64 // orch mean device load at epoch end
	// Control-plane activity this epoch. Migrations splits by path
	// locality: MigSameRow stayed inside one row, MigCrossRow crossed
	// the core tier.
	Migrations    int
	MigSameRow    int
	MigCrossRow   int
	Repatriations int
	Unplaced      int
	// Fault-engine view this epoch: racks dead while traffic ran,
	// faults struck-but-unrepaired, and remediation actions the policy
	// heartbeat applied. PolicyThrottled counts actions a rule's rate
	// limit suppressed this heartbeat (retried next epoch).
	DeadRacks       int
	FaultsActive    int
	PolicyActions   int
	PolicyThrottled int
	// Repair-crew view this epoch: faults queued for a crew and faults
	// under active repair after this epoch's strikes were dispatched.
	RepairQueue int
	CrewsBusy   int
	// Churn/admission view this epoch (all zero without a churn
	// source). Live counts tenants arrived-and-not-departed, admitted
	// or still waiting; Retried counts re-admission attempts; WarmGrow
	// and WarmShrink count warm-pool slot transitions.
	Arrivals   int
	Departures int
	Admitted   int
	Rejected   int
	Retried    int
	Live       int
	WarmGrow   int
	WarmShrink int
	// AdmitP50/P95/P99 are this epoch's admission-latency percentiles
	// in simulated nanoseconds (0 when nothing was admitted).
	AdmitP50 float64
	AdmitP95 float64
	AdmitP99 float64
	// Spine view this epoch (all zero on a non-blocking spine):
	// highest uplink utilization, total demand in excess of uplink
	// capacity, and spilled tenants throttled below their demand.
	SpineMaxUtil    float64
	SpineQueuedGbps float64
	SpineThrottled  int
}

// New builds the racks, their orchestrators, and the tenant
// population, and places every tenant (epoch-0 placement).
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Faults != nil {
		fleet := faults.Fleet{
			Racks: cfg.Topo.RackCount(),
			Rows:  cfg.Topo.RowCount(),
			PDUs:  cfg.Topo.PDUCount(),
			HostsPerRack: func(r int) int {
				return cfg.Topo.Rack(r).Spec.Hosts
			},
		}
		if err := cfg.Faults.Validate(fleet); err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		cfg:           cfg,
		placedLocal:   metrics.NewCounterSet(),
		placedSpill:   metrics.NewCounterSet(),
		migratedOut:   metrics.NewCounterSet(),
		drained:       metrics.NewCounterSet(),
		MigrationTime: metrics.NewRecorder(64),
		byName:        make(map[string]*Tenant),
		admitLat:      metrics.NewRecorder(256),
		epochLat:      metrics.NewRecorder(64),
	}
	c.spine = spine.New(cfg.Topo, spine.Config{Oversub: cfg.Oversub})
	for r := 0; r < cfg.Topo.RackCount(); r++ {
		rack, err := c.buildRack(r)
		if err != nil {
			return nil, err
		}
		c.racks = append(c.racks, rack)
		c.placedLocal.Add(rack.Name, 0)
		c.placedSpill.Add(rack.Name, 0)
		c.migratedOut.Add(rack.Name, 0)
		c.drained.Add(rack.Name, 0)
	}
	// Tenant population: BaseGbps from the workload mix. The sampler is
	// seeded per rack so rack r's tenants are identical at every
	// cluster size — the pooling-benefit sweep then varies exactly one
	// thing, the number of racks pooled.
	for r := 0; r < cfg.Topo.RackCount(); r++ {
		demand, err := workload.NewTenantDemand(nil, nil, sim.NewRand(cfg.Seed*31+7+int64(r)))
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.TenantsPerRack; i++ {
			t := &Tenant{
				Name:     fmt.Sprintf("r%dt%d", r, i),
				Home:     r,
				BaseGbps: demand.Next(),
				idx:      len(c.tenants),
				rack:     -1,
			}
			c.tenants = append(c.tenants, t)
			c.byName[t.Name] = t
		}
	}
	for _, r := range c.racks {
		r.deliveredBy = make([]uint64, len(c.tenants))
	}
	c.admitsInto = make([]int, len(c.racks))
	c.refreshSummaries()
	if tr, ok := cfg.Churn.(*churn.Trace); ok && tr != nil {
		// Fail fast on a schedule that names racks outside the fleet,
		// instead of erroring mid-run at the offending arrival.
		if err := tr.Validate(len(c.racks)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildRack assembles one failure domain from its topology spec: pod,
// NICs (at the spec's line rate), orchestrator, sink.
func (c *Cluster) buildRack(idx int) (*Rack, error) {
	cfg := c.cfg
	spec := cfg.Topo.Rack(idx).Spec
	// The shared segment holds the sinks' RX postings, tenant channels
	// and buffer pools: 64 MiB covers the default two devices; bigger
	// racks scale it. Sparse chunk backing keeps idle segment memory
	// nearly free.
	shared := 64 << 20
	if d := spec.Devices(); d > 2 {
		shared = (d + 1) / 2 * (64 << 20)
	}
	// The shared segment is carved from the first MHD, so the spec's
	// device capacity is a floor, not a cap, when the rack is dense.
	deviceSize := spec.DeviceMiB << 20
	if deviceSize < shared {
		deviceSize = shared
	}
	pod, err := core.NewPod(core.Config{
		Hosts:             spec.Hosts,
		NICsPerHost:       0, // attached explicitly below
		SharedSize:        shared,
		DeviceSize:        deviceSize,
		Seed:              cfg.Seed + int64(idx)*1009,
		AgentPollInterval: sim.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	rack := &Rack{
		Name:           fmt.Sprintf("rack%d", idx),
		Pod:            pod,
		index:          idx,
		capScale:       1,
		faultClearedAt: -1,
		nicsPerHost:    spec.NICsPerHost,
		payload:        make([]byte, payloadBytes),
	}
	for i := range rack.payload {
		rack.payload[i] = byte(i)
	}
	o, err := orch.New(pod, "host0", orch.LocalFirst)
	if err != nil {
		return nil, err
	}
	o.EnableRebalance = true
	rack.Orch = o
	// hosts[1:] contribute the pooled devices; host0 carries the sink
	// NICs, deliberately outside the pool: the orchestrator must never
	// back a tenant vNIC with one (Bind would steal the sink's RX
	// delivery callback).
	hosts := pod.Hosts()
	sinkHost, err := pod.Host(hosts[0])
	if err != nil {
		return nil, err
	}
	for _, hn := range hosts[1:] {
		h, err := pod.Host(hn)
		if err != nil {
			return nil, err
		}
		for j := 0; j < spec.NICsPerHost; j++ {
			name := fmt.Sprintf("%s-nic%d", hn, j)
			nic, err := h.AddNICRate(name, spec.NICRate())
			if err != nil {
				return nil, err
			}
			if err := o.RegisterDevice(h, name); err != nil {
				return nil, err
			}
			rack.capacityGbps += float64(nic.LineRate()) * 8
			rack.poolNICs = append(rack.poolNICs, nic)
		}
	}
	if len(rack.poolNICs) > 0 {
		rack.perNICGbps = rack.capacityGbps / float64(len(rack.poolNICs))
	}
	// One sink port per pooled device, so the receive side never caps
	// the rack below its pooled capacity: losses under overload happen
	// where they should, at the pooled NICs' line rate.
	onDelivery := func(_ sim.Time, _ string, payload []byte) {
		rack.deliveredBytes += uint64(len(payload))
		if len(payload) >= 4 {
			if idx := binary.LittleEndian.Uint32(payload[:4]); int(idx) < len(rack.deliveredBy) {
				rack.deliveredBy[idx] += uint64(len(payload))
			}
		}
	}
	for j := range rack.poolNICs {
		name := fmt.Sprintf("%s-snk%d", hosts[0], j)
		if _, err := sinkHost.AddNIC(name); err != nil {
			return nil, err
		}
		// One RX buffer: a sink on its own host's NIC gets each frame
		// and reposts its buffer inside FromWire, and the FIFO ring
		// would write (and back) every deeper buffer for nothing.
		sink := core.NewVirtualNIC(sinkHost, fmt.Sprintf("%s-sink%d", rack.Name, j), core.VNICConfig{BufSize: payloadBytes + 1024, RxBuffers: 1})
		if _, err := sink.Bind(sinkHost, name); err != nil {
			return nil, err
		}
		sink.OnReceive(onDelivery)
		rack.sinks = append(rack.sinks, sink)
		rack.sinkNICs = append(rack.sinkNICs, name)
	}
	if err := o.Start(); err != nil {
		return nil, err
	}
	return rack, nil
}

// Config returns the cluster's effective (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Racks returns the racks in index order.
func (c *Cluster) Racks() []*Rack { return c.racks }

// Tenants returns the tenant population in stable order.
func (c *Cluster) Tenants() []*Tenant { return c.tenants }

// Counters returns (local placements, spill placements, cross-rack
// migrations out, drain relocations), each per-rack in rack order.
func (c *Cluster) Counters() (local, spill, migrated, drained *metrics.CounterSet) {
	return c.placedLocal, c.placedSpill, c.migratedOut, c.drained
}

// offeredGbps sums current demand placed on a rack.
func (c *Cluster) offeredGbps(rackIdx int) float64 {
	var sum float64
	for _, t := range c.tenants {
		if t.rack == rackIdx {
			sum += t.gbps
		}
	}
	return sum
}

// pressure is offered demand over capacity, the global placement
// signal. Demand is known exactly at this layer (the cluster admits
// the tenants), so pressure needs no EWMA; the measured per-device
// loads inside each orch corroborate it in the epoch stats.
func (c *Cluster) pressure(rackIdx int) float64 {
	r := c.racks[rackIdx]
	cap := r.effCapacityGbps() * r.capScale
	if cap == 0 {
		return 1
	}
	return c.offeredGbps(rackIdx) / cap
}

// userFor returns the deterministic user host a tenant gets in a rack:
// device hosts are hosts[1:], spread by the tenant's cluster ordinal.
func (c *Cluster) userFor(t *Tenant, rack *Rack) (*core.Host, error) {
	hosts := rack.Pod.Hosts()
	return rack.Pod.Host(hosts[1+t.idx%(len(hosts)-1)])
}

// canServe reports whether a rack could bind the tenant right now: not
// draining or dead, and its orchestrator's pick primitive finds a
// usable device (all-failed racks must not attract placements).
func (c *Cluster) canServe(t *Tenant, rackIdx int) bool {
	r := c.racks[rackIdx]
	if r.draining || r.dead {
		return false
	}
	user, err := c.userFor(t, r)
	if err != nil {
		return false
	}
	_, err = r.Orch.PickDevice(user, "")
	return err == nil
}

// coldestRackFor returns the reconciler's spill/relocation target for
// the tenant (excluding `exclude`; pass -1 to consider all), or -1 if
// none can serve it: rankSpill over live state.
func (c *Cluster) coldestRackFor(t *Tenant, exclude int) int {
	return c.rankSpill(t, exclude, func(i int) bool { return c.canServe(t, i) }, c.pressure)
}

// rankSpill is the one spill ranker. The reconciler (coldestRackFor)
// and the router (Admit's spill probe) both place through it, so the
// two layers never fight; they pass only what differs between them:
// which racks are eligible, and where a rack's pressure is read.
// Eligible racks other than `exclude` whose home<->candidate path still
// has residual uplink capacity for the tenant's demand rank strictly
// ahead of ones that would oversubscribe a link (so a 40G heterogeneous
// rack's bundle is never silently oversubscribed while an alternative
// exists); within each class they are ranked by path hops from the
// tenant's current location (its home when unplaced) — same-row racks
// before cross-row ones — then by pressure; remaining ties break
// toward the lowest index, keeping placement deterministic. Returns -1
// when no rack is eligible.
func (c *Cluster) rankSpill(t *Tenant, exclude int, eligible func(int) bool, pressure func(int) float64) int {
	ref := t.rack
	if ref < 0 {
		ref = t.Home
	}
	c.loadSpineDemand(t)
	best, bestFits, bestHops, bestP := -1, false, 0, 0.0
	for i := range c.racks {
		if i == exclude || !eligible(i) {
			continue
		}
		fits := c.spine.FlowFits(t.Home, i, t.gbps)
		hops := c.cfg.Topo.RackPath(ref, i).Hops
		p := pressure(i)
		if best == -1 || (fits && !bestFits) ||
			(fits == bestFits && (hops < bestHops || (hops == bestHops && p < bestP))) {
			best, bestFits, bestHops, bestP = i, fits, hops, p
		}
	}
	return best
}

// loadSpineDemand rebuilds the spine's fluid ledger from current
// placements: every live spilled tenant lays its demand on the uplinks
// of its home<->placement path. `exclude` omits one tenant (the one
// being re-placed, whose flow would move with it); pass nil to load
// everything. The ledger is a pure function of placement state, so
// rebuilding on demand keeps it consistent with no incremental
// bookkeeping — and it is only ever built on the single-threaded
// control plane, never inside a rack worker.
func (c *Cluster) loadSpineDemand(exclude *Tenant) {
	c.spine.BeginFlows()
	for _, t := range c.tenants {
		if t == exclude || t.gone || t.rack < 0 || t.rack == t.Home || t.gbps <= 0 {
			continue
		}
		c.spine.AddFlow(t.Home, t.rack, t.gbps)
	}
}

// SpineLinks returns the spine's per-uplink accounting snapshot (rack
// uplinks in rack order, then row uplinks).
func (c *Cluster) SpineLinks() []spine.LinkStats { return c.spine.LinkStats() }

// vnicConfig sizes tenant vNICs: enough TX buffering to ride out the
// ~1us agent completion cadence at up to tenantCapGbps.
func vnicConfig() core.VNICConfig {
	return core.VNICConfig{
		BufSize:      payloadBytes + 1024,
		TxBuffers:    256,
		RxBuffers:    8,
		ChannelSlots: 512,
	}
}

// place runs failure-domain-aware placement for one tenant: home rack
// while pressure allows, otherwise spill to the coldest remote rack.
// Non-federated clusters always place at home (and overload it — the
// baseline the pooling-benefit sweep measures against).
func (c *Cluster) place(t *Tenant) error {
	target := t.Home
	spilled := false
	home := c.racks[t.Home]
	if c.cfg.Federate {
		homeOK := c.canServe(t, t.Home) &&
			(c.offeredGbps(t.Home)+t.gbps)/home.effCapacityGbps() <= pressureThreshold
		if !homeOK {
			if cold := c.coldestRackFor(t, t.Home); cold >= 0 {
				target, spilled = cold, true
			} else if !c.canServe(t, t.Home) {
				// Nowhere to spill AND home cannot serve (draining or
				// all devices failed): leave the tenant unplaced
				// rather than pushing it into a rack whose control
				// plane is down.
				return fmt.Errorf("%w: no rack can serve %s", ErrDraining, t.Name)
			}
			// Home is pressured but serviceable and nothing colder
			// exists: stay home, degraded.
		}
	} else if home.draining || home.dead {
		return fmt.Errorf("%w: %s (federation disabled)", ErrDraining, home.Name)
	}
	if err := c.bind(t, target); err != nil {
		if !c.cfg.Federate {
			return err
		}
		// The rack passed canServe but the bind hit rack-local resource
		// exhaustion (a shared segment filled by fault pile-ons). Try
		// the next-coldest rack once, then leave the tenant unplaced —
		// counted and retried next heartbeat — rather than failing the
		// whole run over one rack's full segment.
		if alt := c.coldestRackFor(t, target); alt >= 0 && alt != target {
			if err2 := c.bind(t, alt); err2 == nil {
				c.placedSpill.Add(c.racks[alt].Name, 1)
				return nil
			}
		}
		return fmt.Errorf("%w: %v", ErrDraining, err)
	}
	if spilled {
		c.placedSpill.Add(c.racks[target].Name, 1)
	} else {
		c.placedLocal.Add(c.racks[target].Name, 1)
	}
	return nil
}

// bind allocates the tenant's vNIC in a rack through that rack's
// orchestrator.
func (c *Cluster) bind(t *Tenant, rackIdx int) error {
	rack := c.racks[rackIdx]
	user, err := c.userFor(t, rack)
	if err != nil {
		return err
	}
	v, err := rack.Orch.Allocate(user, t.Name, vnicConfig())
	if err != nil {
		return fmt.Errorf("cluster: placing %s in %s: %w", t.Name, rack.Name, err)
	}
	t.vnic, t.user, t.rack = v, user, rackIdx
	return nil
}

// migrate moves a tenant to rack dst: release in the source rack,
// allocate in the destination, stream the tenant's device state over
// the spine. Returns the move's modeled cost — on finite uplinks that
// includes FIFO queueing behind earlier transfers still occupying the
// crossed links, so concurrent evacuations into one uplink delay each
// other; on a non-blocking spine it is exactly MigrationCost.
func (c *Cluster) migrate(t *Tenant, dst int) (sim.Duration, error) {
	src := t.rack
	if src == dst {
		return 0, nil
	}
	if src >= 0 {
		if err := c.racks[src].Orch.Release(t.Name); err != nil {
			return 0, err
		}
		t.vnic, t.user, t.rack = nil, nil, -1
	}
	if err := c.bind(t, dst); err != nil {
		return 0, err
	}
	var cost sim.Duration
	if src >= 0 {
		c.migratedOut.Add(c.racks[src].Name, 1)
		_, cost = c.spine.Transfer(c.spineClock(), src, dst, DefaultTenantState)
		c.MigrationTime.Record(float64(cost))
		if c.cfg.Topo.SameRow(src, dst) {
			c.sameRowMigs++
		} else {
			c.crossRowMigs++
		}
	}
	return cost, nil
}

// spineClock is the spine's notion of now: control-plane transfers are
// stamped at the opening edge of the current epoch.
func (c *Cluster) spineClock() sim.Time {
	return sim.Time(c.epoch) * c.cfg.Epoch
}

// RowMigrations returns the cumulative migration split: moves that
// stayed inside one row vs moves that crossed the core tier.
func (c *Cluster) RowMigrations() (sameRow, crossRow uint64) {
	return c.sameRowMigs, c.crossRowMigs
}

// globalSweep is the between-epochs control loop: repatriate spilled
// tenants whose home cooled down, then relieve pressured racks by
// spilling their largest tenants to the coldest rack. Mirrors the
// pod-level monitor sweep one level up, with the same anti-thrash
// lesson: every move transfers exactly the moved tenant's demand, and
// repatriation uses a hysteresis margin below the spill threshold.
func (c *Cluster) globalSweep() (migrations, repatriations int, err error) {
	if !c.cfg.Federate {
		return 0, 0, nil
	}
	// Repatriation first: it frees remote capacity for new spills.
	for _, t := range c.tenants {
		if t.rack < 0 || t.rack == t.Home ||
			c.racks[t.Home].draining || c.racks[t.Home].dead {
			continue
		}
		// Hysteresis: come home only if home stays clearly below the
		// spill threshold with the tenant's demand back.
		if c.canServe(t, t.Home) &&
			(c.offeredGbps(t.Home)+t.gbps)/c.racks[t.Home].effCapacityGbps() <= pressureThreshold*0.85 {
			if _, err := c.migrate(t, t.Home); err != nil {
				// Rack-local resource exhaustion (a segment filled by
				// fault pile-ons): the tenant is left unplaced and the
				// next heartbeat re-places it; aborting the run over one
				// failed move would turn degradation into an outage.
				continue
			}
			migrations++
			repatriations++
		}
	}
	// Pressure relief: bounded passes so a hopeless overload cannot
	// loop forever.
	for pass := 0; pass < len(c.tenants); pass++ {
		hot, hotP := -1, 0.0
		for i, r := range c.racks {
			// Dead racks publish no heartbeats; the sweep reads silence,
			// not pressure, so remediation there is the policy engine's
			// job, not this loop's.
			if r.draining || r.dead {
				continue
			}
			if p := c.pressure(i); p > hotP {
				hot, hotP = i, p
			}
		}
		if hot < 0 || hotP <= pressureThreshold {
			break
		}
		// Largest resident tenant whose move does not just swap the
		// problem to the destination (each tenant's destination is its
		// own coldest servable rack).
		var pick *Tenant
		pickDst := -1
		for _, t := range c.tenants {
			if t.rack != hot {
				continue
			}
			dst := c.coldestRackFor(t, hot)
			if dst < 0 {
				continue
			}
			if (c.offeredGbps(dst)+t.gbps)/c.racks[dst].effCapacityGbps() > pressureThreshold {
				continue
			}
			if pick == nil || t.gbps > pick.gbps {
				pick, pickDst = t, dst
			}
		}
		if pick == nil {
			break // nothing movable without overloading a destination
		}
		if _, err := c.migrate(pick, pickDst); err != nil {
			break // destination bind failed; retried next heartbeat
		}
		migrations++
	}
	return migrations, repatriations, nil
}

// DrainRack evacuates a whole failure domain for maintenance: every
// resident tenant migrates to the coldest surviving rack, the rack's
// orchestrator stops, and the rack stops taking placements. Returns
// the relocated tenant count and the modeled drain cost (sequential
// state streams over the spine). Draining an already-draining rack
// returns ErrDraining; a dead rack returns ErrRackDead — both leave
// placement state untouched, so operator drains and policy remediation
// can race without corruption.
func (c *Cluster) DrainRack(idx int) (int, sim.Duration, error) {
	return c.drainRack(idx, drainOperator)
}

func (c *Cluster) drainRack(idx int, by drainCause) (int, sim.Duration, error) {
	if idx < 0 || idx >= len(c.racks) {
		return 0, 0, fmt.Errorf("%w: %d", ErrUnknownRack, idx)
	}
	if !c.cfg.Federate {
		return 0, 0, fmt.Errorf("%w: draining %s needs somewhere to put its tenants", ErrNotFederated, c.racks[idx].Name)
	}
	rack := c.racks[idx]
	if rack.draining {
		return 0, 0, fmt.Errorf("%w: %s", ErrDraining, rack.Name)
	}
	if rack.dead {
		return 0, 0, fmt.Errorf("%w: %s", ErrRackDead, rack.Name)
	}
	rack.draining = true
	rack.drainedBy = by
	moved := 0
	var cost sim.Duration
	for _, t := range c.tenants {
		if t.rack != idx {
			continue
		}
		dst := c.coldestRackFor(t, idx)
		if dst < 0 {
			rack.draining, rack.drainedBy = false, drainNone
			return moved, cost, fmt.Errorf("cluster: draining %s: no surviving rack", rack.Name)
		}
		moveCost, err := c.migrate(t, dst)
		if err != nil {
			rack.draining, rack.drainedBy = false, drainNone
			return moved, cost, err
		}
		moved++
		// Each relocation is charged by its own path and queues on the
		// spine: same-row targets (preferred by coldestRackFor) stream
		// cheaper than cross-row, and on finite uplinks the drain's
		// streams serialize behind each other on the shared uplink.
		cost += moveCost
		c.drained.Add(rack.Name, 1)
	}
	rack.Orch.Stop()
	return moved, cost, nil
}

// reopenRack reverses a drain: the rack's orchestrator restarts and the
// rack takes placements again. Tenants do not move back eagerly — the
// global sweep (or a repatriate rule) brings them home as pressure
// allows.
func (c *Cluster) reopenRack(idx int) error {
	rack := c.racks[idx]
	if rack.dead {
		return fmt.Errorf("%w: %s", ErrRackDead, rack.Name)
	}
	if !rack.draining {
		return fmt.Errorf("cluster: %s is not draining", rack.Name)
	}
	rack.draining, rack.drainedBy = false, drainNone
	return rack.Orch.Start()
}

// RunEpoch advances the whole cluster one epoch: update demand from
// the skew schedule, run the global sweep, then simulate every rack's
// traffic in parallel. Returns the epoch's stats.
func (c *Cluster) RunEpoch() (EpochStats, error) {
	e := c.epoch
	st := EpochStats{
		Epoch:         e,
		HotRack:       c.cfg.Skew.HotRack(e),
		OfferedGbps:   make([]float64, len(c.racks)),
		DeliveredGbps: make([]float64, len(c.racks)),
		Pressure:      make([]float64, len(c.racks)),
		MeasuredLoad:  make([]float64, len(c.racks)),
	}
	// Demand update. Departed tenants stay in the slice (ordinals are
	// delivery-attribution keys) but demand nothing.
	for _, t := range c.tenants {
		if t.gone {
			t.gbps, t.grantGbps = 0, 0
			continue
		}
		t.gbps = t.BaseGbps * c.cfg.Skew.Factor(e, t.Home)
		if t.gbps > tenantCapGbps {
			t.gbps = tenantCapGbps
		}
		t.grantGbps = t.gbps
	}
	// Scheduled physical repairs land first, so the policy heartbeat
	// below sees post-repair state (reopen/repatriate rules trigger the
	// same epoch a fault clears); freed crews immediately pick up
	// queued faults; strikes land last, after the whole control plane,
	// so detection is always the next heartbeat.
	if c.cfg.Faults != nil {
		c.applyRepairs(e)
		c.dispatchCrews(e)
	}
	if c.cfg.Remediate != nil {
		throttled0 := c.remedThrottled
		st.PolicyActions = c.runPolicy(e)
		st.PolicyThrottled = c.remedThrottled - throttled0
	}
	// Router turn: the reconciler publishes fresh headroom summaries,
	// then the fast path runs this epoch's departures, retries, and
	// arrivals against the cache.
	if c.cfg.Churn != nil {
		c.refreshSummaries()
		if err := c.admitEpoch(e, &st); err != nil {
			return st, err
		}
	}
	// Initial placement (epoch 0) and placement of any tenant a failed
	// earlier sweep left unplaced. Churn tenants never take this path —
	// rejected ones wait for the router's next retry turn.
	for _, t := range c.tenants {
		if t.rack >= 0 || t.churn {
			continue
		}
		if err := c.place(t); err != nil {
			if !errors.Is(err, ErrDraining) {
				// Drain-related unplacement is expected and counted;
				// anything else (segment exhaustion, broken rack) is a
				// real failure the caller must see.
				return st, err
			}
			st.Unplaced++
		}
	}
	same0, cross0 := c.sameRowMigs, c.crossRowMigs
	mig, rep, err := c.globalSweep()
	if err != nil {
		return st, err
	}
	st.Migrations, st.Repatriations = mig, rep
	st.MigSameRow = int(c.sameRowMigs - same0)
	st.MigCrossRow = int(c.crossRowMigs - cross0)
	if c.cfg.Autoscale {
		c.autoscale(&st)
	}
	for i := range c.racks {
		st.Pressure[i] = c.pressure(i)
	}
	if c.cfg.Faults != nil {
		c.applyStrikes(e)
		c.dispatchCrews(e)
		st.RepairQueue, st.CrewsBusy = c.repairQueue()
	}
	// Spine grant pass: every spilled tenant's steady demand is laid on
	// the links of its home<->placement path and granted a proportional
	// fair share — concurrent spills into one finite uplink contend,
	// throttling each other's pumps below demand. Runs after the strike
	// pass so freshly browned paths bind this epoch.
	c.loadSpineDemand(nil)
	for _, t := range c.tenants {
		if t.gone || t.rack < 0 || t.rack == t.Home || t.gbps <= 0 {
			continue
		}
		g := c.spine.GrantRate(t.Home, t.rack, t.gbps)
		if g < t.gbps {
			st.SpineThrottled++
		}
		t.grantGbps = g
	}
	sum := c.spine.CloseFlows()
	st.SpineMaxUtil, st.SpineQueuedGbps = sum.MaxUtil, sum.QueuedGbps
	for _, r := range c.racks {
		if r.dead {
			st.DeadRacks++
		}
	}
	c.deadRackEpochs += uint64(st.DeadRacks)
	c.rackEpochs += uint64(len(c.racks))
	st.FaultsActive = c.openFaults()
	// Simulate every rack's epoch in parallel; racks share nothing, so
	// the fan-out is free determinism-wise (golden-tested).
	delivered0 := make([]uint64, len(c.racks))
	offered0 := make([]uint64, len(c.racks))
	for i, r := range c.racks {
		delivered0[i] = r.deliveredBytes
		for _, t := range c.tenants {
			if t.rack == i {
				offered0[i] += t.offeredBytes
			}
		}
	}
	if err := (runner.Pool{Workers: c.cfg.Workers}).ForEach(len(c.racks), func(i int) error {
		return c.runRackEpoch(c.racks[i])
	}); err != nil {
		return st, err
	}
	secs := c.cfg.Epoch.Seconds()
	for i, r := range c.racks {
		var offered uint64
		for _, t := range c.tenants {
			if t.rack == i {
				offered += t.offeredBytes
			}
		}
		st.OfferedGbps[i] = float64(offered-offered0[i]) * 8 / secs / 1e9
		st.DeliveredGbps[i] = float64(r.deliveredBytes-delivered0[i]) * 8 / secs / 1e9
		st.MeasuredLoad[i], _ = r.Orch.MeanLoad()
	}
	if c.cfg.Faults != nil {
		c.checkRecoveries(e)
	}
	// Land the epoch's spine transfer completions (inflight and queued
	// bytes drain up to the epoch's closing edge).
	if err := c.spine.AdvanceTo(sim.Time(e+1) * c.cfg.Epoch); err != nil {
		return st, err
	}
	c.epoch++
	return st, nil
}

// tenantPump is one tenant's epoch traffic generator: a
// self-rescheduling event that reuses a single closure for its whole
// lifetime (one allocation per tenant-epoch, not one per packet — the
// same pattern as the agent poll loop).
type tenantPump struct {
	r             *Rack
	t             *Tenant
	dst           string
	interval, end sim.Time
	at            sim.Time
	fn            func()
}

func (p *tenantPump) fire() {
	if p.at >= p.end {
		return
	}
	p.t.offeredBytes += payloadBytes
	// Tag the frame with the tenant ordinal so the sink can attribute
	// delivery. The scratch is shared rack-wide, but Send copies it out
	// synchronously, so tag+send is atomic within this event.
	binary.LittleEndian.PutUint32(p.r.payload[:4], uint32(p.t.idx))
	if _, err := p.t.vnic.Send(p.at, p.dst, p.r.payload); err == nil {
		p.t.sentBytes += payloadBytes
	}
	p.at += p.interval
	if p.at < p.end {
		p.r.Pod.Engine.At(p.at, p.fn)
	}
}

// runRackEpoch pumps every resident tenant's traffic and advances the
// rack engine by one epoch. Runs on a worker goroutine; touches only
// rack-local and resident-tenant state.
func (c *Cluster) runRackEpoch(r *Rack) error {
	start, end := r.clock, r.clock+c.cfg.Epoch
	if r.dead {
		// A dead rack's residents still offer their demand — it just
		// goes nowhere. Accrue exactly the bytes the pumps would have
		// generated (fire count is ceil(epoch/interval)) without
		// advancing the engine; it resumes, with whatever events were
		// queued, when the rack is repaired.
		for _, t := range c.tenants {
			if t.rack != r.index || t.gbps <= 0 {
				continue
			}
			interval := sim.Duration(float64(payloadBytes*8) / t.gbps)
			if interval < 1 {
				interval = 1
			}
			n := (c.cfg.Epoch + interval - 1) / interval
			t.offeredBytes += uint64(n) * payloadBytes
		}
		r.clock = end
		return nil
	}
	for _, t := range c.tenants {
		if t.rack != r.index || t.gbps <= 0 {
			continue
		}
		// Pump at the spine-granted rate: a tenant throttled on an
		// oversubscribed uplink fires fewer frames. The ungranted
		// remainder is still offered demand — accrue it analytically
		// (the dead-rack pattern) so goodput = delivered/offered dips
		// under contention. Rack-local tenant writes only.
		rate := t.grantGbps
		if rate <= 0 || rate > t.gbps {
			rate = t.gbps
		}
		interval := sim.Duration(float64(payloadBytes*8) / rate)
		if interval < 1 {
			interval = 1
		}
		if rate < t.gbps {
			full := sim.Duration(float64(payloadBytes*8) / t.gbps)
			if full < 1 {
				full = 1
			}
			nFull := (c.cfg.Epoch + full - 1) / full
			nGrant := (c.cfg.Epoch + interval - 1) / interval
			if nFull > nGrant {
				t.offeredBytes += uint64(nFull-nGrant) * payloadBytes
			}
		}
		p := &tenantPump{r: r, t: t, dst: r.sinkNICs[t.idx%len(r.sinkNICs)],
			interval: interval, end: end, at: start}
		p.fn = p.fire
		r.Pod.Engine.At(start, p.fn)
	}
	if _, err := r.Pod.Engine.RunUntil(end); err != nil {
		return err
	}
	r.clock = end
	return nil
}

// DomainOutage is one topology domain's modeled probability of being
// entirely out: for a rack, the torless closed-form ToR-less pod
// outage for its hardware spec; for rows and the cluster root, every
// contained rack simultaneously out (independent failures).
type DomainOutage struct {
	Name   string
	Kind   topo.Kind
	Outage float64
}

// Availability extends the torless reliability analysis to every
// domain of the topology: per-rack outages from each rack's own spec
// (heterogeneous racks get heterogeneous outage figures), aggregated
// up the tree. Results are in tree order: racks, then rows, then the
// cluster root.
func (c *Cluster) Availability(probs torless.FailureProbs) []DomainOutage {
	t := c.cfg.Topo
	rackOut := make([]float64, t.RackCount())
	out := make([]DomainOutage, 0, t.RackCount()+t.RowCount()+1)
	for i, r := range t.Racks() {
		rackOut[i] = torless.AnalyticRackOutage(torless.Config{
			PodSize:    r.Spec.Hosts,
			PooledNICs: r.Spec.Devices(),
			Probs:      probs,
		})
		out = append(out, DomainOutage{Name: r.Name, Kind: topo.KindRack, Outage: rackOut[i]})
	}
	all := 1.0
	for ri, row := range t.Rows() {
		p := 1.0
		for i := range t.Racks() {
			if t.RowOf(i) == ri {
				p *= rackOut[i]
			}
		}
		out = append(out, DomainOutage{Name: row.Name, Kind: topo.KindRow, Outage: p})
		all *= p
	}
	out = append(out, DomainOutage{Name: t.Root().Name, Kind: topo.KindRoot, Outage: all})
	return out
}

// Run executes n epochs and returns their stats.
func (c *Cluster) Run(n int) ([]EpochStats, error) {
	out := make([]EpochStats, 0, n)
	for i := 0; i < n; i++ {
		st, err := c.RunEpoch()
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}
