// Package orch implements the pooling orchestrator of §4.2: the control
// plane that allocates PCIe devices to hosts, monitors device load and
// health through records in shared CXL memory, migrates workloads to
// balance load, and fails over when devices die.
//
// "The pooling orchestrator ... handles control plane operations,
// including allocating PCIe devices to hosts, monitoring resource usage
// and health status of each PCIe device, and migrating workloads
// between devices to balance load or handle device failures. Each host
// runs a pooling agent that monitors and configures the PCIe device.
// The orchestrator and the agents communicate using shared-memory
// channels in the shared CXL memory."
package orch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"cxlpool/internal/core"
	"cxlpool/internal/metrics"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/shm"
	"cxlpool/internal/sim"
)

// Policy selects how devices are allocated to hosts.
type Policy int

const (
	// LocalFirst is the paper's policy: "the orchestrator first checks
	// if the host has a local PCIe device that is below a load
	// threshold. If not, the orchestrator selects the least-utilized
	// device in the pod."
	LocalFirst Policy = iota
	// LeastUtilized always picks the globally least-utilized device
	// (ablation: ignores locality).
	LeastUtilized
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LocalFirst:
		return "local-first"
	case LeastUtilized:
		return "least-utilized"
	default:
		return "unknown"
	}
}

// Intervals for the control loops.
const (
	// publishInterval is how often agents publish device health
	// records to shared memory.
	publishInterval sim.Duration = 50 * sim.Microsecond
	// monitorInterval is how often the orchestrator sweeps the records.
	monitorInterval sim.Duration = 100 * sim.Microsecond
	// loadThreshold is the utilization above which a local device is
	// too busy for the local-first fast path.
	loadThreshold = 0.7
)

// Errors.
var (
	ErrNoDevices   = errors.New("orch: no usable devices in the pool")
	ErrUnknownVNIC = errors.New("orch: unknown virtual NIC")
	ErrUnknownPhys = errors.New("orch: unknown physical device")
)

// device is the orchestrator's view of one physical NIC.
type device struct {
	name  string
	owner *core.Host
	nic   *nicsim.NIC

	record *shm.SeqRecord

	// Monitor state.
	load      float64 // fraction of line rate, from record deltas
	failed    bool
	failedAt  sim.Time
	lastBytes uint64
	lastSeen  sim.Time
	handled   bool // failure already failed-over
	// draining pins the device out of the pool for maintenance: the
	// monitor sweep must not overwrite failed/handled from the device's
	// (healthy) published record and readmit a host that is about to be
	// hot-removed.
	draining bool
}

// Orchestrator is the management-container control plane. It runs on a
// home host and reaches agents' records through that host's CXL view.
type Orchestrator struct {
	pod  *core.Pod
	home *core.Host

	policy Policy
	// EnableRebalance turns on load shifting in the monitor sweep.
	EnableRebalance bool
	// RebalanceGap is the max-min load gap that triggers a migration.
	RebalanceGap float64

	devices map[string]*device
	order   []string

	vnics  map[string]*core.VirtualNIC
	assign map[string]string // vNIC name -> device name
	// vnicOrder is allocation order. Every behavioral walk over the
	// assignment table iterates this slice, never the maps: map order
	// would make device choice and control-plane timing vary run to run,
	// and the experiment layer guarantees bit-identical output per seed.
	vnicOrder []string

	// ctl carries automatic-failover commands to user-host agents over
	// shared-memory channels (§4.2); acks update the assignment map and
	// record downtime.
	ctl *core.ControlPlane
	// pendingRemap tracks in-flight remap commands: vNIC -> target dev.
	pendingRemap map[string]string

	started bool
	stopped bool
	// gen invalidates control-loop events scheduled by earlier Start
	// calls: a stop/restart cycle must not leave the old loops' queued
	// events alive alongside the new ones (double cadence).
	gen uint64

	// Stats.
	failovers  uint64
	migrations uint64
	sweeps     uint64

	// FailoverTime records detection-to-remap latency (ns), measured
	// from the failure timestamp the agent published.
	FailoverTime *metrics.Recorder
}

// New creates an orchestrator homed on the named host.
func New(pod *core.Pod, homeHost string, policy Policy) (*Orchestrator, error) {
	home, err := pod.Host(homeHost)
	if err != nil {
		return nil, err
	}
	o := &Orchestrator{
		pod:          pod,
		home:         home,
		policy:       policy,
		RebalanceGap: 0.3,
		devices:      make(map[string]*device),
		vnics:        make(map[string]*core.VirtualNIC),
		assign:       make(map[string]string),
		pendingRemap: make(map[string]string),
		ctl:          core.NewControlPlane(pod, home),
		FailoverTime: metrics.NewRecorder(64),
	}
	o.ctl.OnAck = o.handleRemapAck
	return o, nil
}

// handleRemapAck completes an asynchronous failover remap: the user
// host's agent has executed the rebind.
func (o *Orchestrator) handleRemapAck(now sim.Time, vnic, dev string, stamp sim.Time, ok bool) {
	want, pending := o.pendingRemap[vnic]
	if !pending || want != dev {
		return
	}
	delete(o.pendingRemap, vnic)
	if !ok {
		return // command failed; the next sweep retries
	}
	o.assign[vnic] = dev
	o.failovers++
	if stamp > 0 {
		o.FailoverTime.Record(float64(now - stamp))
	}
}

// Stats returns (failovers, migrations, sweeps).
func (o *Orchestrator) Stats() (failovers, migrations, sweeps uint64) {
	return o.failovers, o.migrations, o.sweeps
}

// RegisterDevice places a physical NIC under pool management and
// allocates its health record in shared memory.
func (o *Orchestrator) RegisterDevice(owner *core.Host, nicName string) error {
	nic, err := owner.NIC(nicName)
	if err != nil {
		return err
	}
	if _, ok := o.devices[nicName]; ok {
		return fmt.Errorf("orch: device %q already registered", nicName)
	}
	addr, err := o.pod.SharedAlloc(shm.SeqRecordFootprint)
	if err != nil {
		return err
	}
	rec, err := shm.NewSeqRecord(addr)
	if err != nil {
		return err
	}
	o.devices[nicName] = &device{name: nicName, owner: owner, nic: nic, record: rec}
	o.order = append(o.order, nicName)
	return nil
}

// RegisterAll places every NIC in the pod under management.
func (o *Orchestrator) RegisterAll() error {
	for _, hn := range o.pod.Hosts() {
		h, err := o.pod.Host(hn)
		if err != nil {
			return err
		}
		nics := h.NICs()
		sort.Slice(nics, func(i, j int) bool { return nics[i].Name() < nics[j].Name() })
		for _, n := range nics {
			if err := o.RegisterDevice(h, n.Name()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Assignment returns the device currently backing a vNIC.
func (o *Orchestrator) Assignment(vnic string) (string, error) {
	dev, ok := o.assign[vnic]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownVNIC, vnic)
	}
	return dev, nil
}

// recordPayload encodes a device health record:
// [txBytes u64][rxDrops u64][failedAt i64][failed u8].
func recordPayload(n *nicsim.NIC, failedAt sim.Time) []byte {
	buf := make([]byte, 32)
	tx, _, txb, _, drops := n.Stats()
	_ = tx
	binary.LittleEndian.PutUint64(buf[0:8], txb)
	binary.LittleEndian.PutUint64(buf[8:16], drops)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(failedAt))
	if n.Failed() {
		buf[24] = 1
	}
	return buf
}

// Start launches the agent publishers and the monitor loop. A stopped
// orchestrator may be started again (maintenance restart); control-loop
// events left in the queue by the previous run are invalidated, so the
// restarted loops run at single cadence.
func (o *Orchestrator) Start() error {
	if o.started && !o.stopped {
		return errors.New("orch: already started")
	}
	if len(o.devices) == 0 {
		return ErrNoDevices
	}
	o.started = true
	o.stopped = false
	o.gen++
	gen := o.gen
	engine := o.pod.Engine
	// One publisher loop per owning host (the host's pooling agent).
	// Hosts are walked in device-registration order, not map order: the
	// publisher kickoff events all share a timestamp, so scheduling
	// order is FIFO order, and map iteration here would perturb publish
	// interleaving (and thus measured downtimes) from run to run.
	byHost := make(map[string][]*device)
	var hostOrder []string
	for _, name := range o.order {
		d := o.devices[name]
		hn := d.owner.Name()
		if _, seen := byHost[hn]; !seen {
			hostOrder = append(hostOrder, hn)
		}
		byHost[hn] = append(byHost[hn], d)
	}
	for _, hn := range hostOrder {
		devs := byHost[hn]
		var publish func(t sim.Time)
		publish = func(t sim.Time) {
			if o.stopped || gen != o.gen {
				return
			}
			cur := t
			for _, d := range devs {
				// Stamp the first failure observation.
				if d.nic.Failed() && d.failedAt == 0 {
					d.failedAt = cur
				}
				pd, err := d.record.Publish(cur, d.owner.Cache(), recordPayload(d.nic, d.failedAt))
				if err == nil {
					cur += pd
				}
			}
			engine.At(cur+publishInterval, func() { publish(cur + publishInterval) })
		}
		engine.At(engine.Now()+publishInterval, func() { publish(engine.Now()) })
	}
	// Monitor loop.
	var sweep func(t sim.Time)
	sweep = func(t sim.Time) {
		if o.stopped || gen != o.gen {
			return
		}
		end := o.monitorSweep(t)
		engine.At(end+monitorInterval, func() { sweep(end + monitorInterval) })
	}
	engine.At(engine.Now()+monitorInterval, func() { sweep(engine.Now() + monitorInterval) })
	return nil
}

// Stop halts the control loops. Monitor and publisher events already in
// the sim queue fire once more and no-op: no sweep, no failover, no
// rebalance migration initiates after Stop returns. Remap commands the
// orchestrator issued before the stop may still complete on the user
// hosts' agents (the command is already in a channel); their acks are
// processed so the assignment map stays truthful. Start may be called
// again to resume.
func (o *Orchestrator) Stop() { o.stopped = true }

// monitorSweep reads every record, updates load estimates, triggers
// failovers and (optionally) rebalancing. Returns the advanced cursor.
func (o *Orchestrator) monitorSweep(t sim.Time) sim.Time {
	o.sweeps++
	cur := t
	for _, name := range o.order {
		d := o.devices[name]
		body, rd, err := d.record.Read(cur, o.home.Cache(), 0)
		cur += rd
		if err != nil {
			continue
		}
		if d.draining {
			// Maintenance marks outrank the record: the agent still
			// publishes "healthy" for a draining host's devices, and
			// acting on it would readmit them to the pick set.
			continue
		}
		txBytes := binary.LittleEndian.Uint64(body[0:8])
		failedAt := sim.Time(binary.LittleEndian.Uint64(body[16:24]))
		failed := body[24] == 1
		if d.lastSeen > 0 && cur > d.lastSeen && txBytes >= d.lastBytes {
			rate := float64(txBytes-d.lastBytes) / (cur - d.lastSeen).Seconds()
			inst := rate / (float64(d.nic.LineRate()) * 1e9)
			// EWMA smoothing keeps the rebalancer from thrashing on
			// bursty traffic.
			d.load = 0.5*d.load + 0.5*inst
		}
		d.lastBytes = txBytes
		d.lastSeen = cur
		d.failed = failed
		if failed && failedAt > 0 {
			d.failedAt = failedAt
		}
		if failed && !d.handled {
			cur = o.failover(cur, d)
		}
		if !failed && d.handled {
			// Device repaired: readmit.
			d.handled = false
			d.failedAt = 0
		}
	}
	if o.EnableRebalance {
		cur = o.rebalance(cur)
	}
	return cur
}

// failover issues remap commands for every vNIC on a failed device,
// through the shared-memory control plane. Completion (assignment
// update, downtime recording) happens when the user host's agent acks.
func (o *Orchestrator) failover(now sim.Time, failedDev *device) sim.Time {
	if o.stopped {
		return now
	}
	failedDev.handled = true
	cur := now
	for _, vname := range o.vnicOrder {
		if o.assign[vname] != failedDev.name {
			continue
		}
		if _, inflight := o.pendingRemap[vname]; inflight {
			continue
		}
		v := o.vnics[vname]
		repl, err := o.pick(v.User(), failedDev.name)
		if err != nil {
			continue // nothing to fail over to; vNIC stays broken
		}
		d, err := o.ctl.SendRemap(cur, v.User(), vname, repl.owner.Name(), repl.name, failedDev.failedAt)
		cur += d
		if err != nil {
			continue // channel full; retried next sweep
		}
		o.pendingRemap[vname] = repl.name
	}
	return cur
}

// doMigrate remaps a vNIC onto dev and updates bookkeeping. On remap
// failure the vNIC must end consistent with the assignment map, which
// still names the previous device: Remap is all-or-nothing (it can
// never leave the vNIC half-bound to dev), so doMigrate restores the
// previous binding when it can. Bind shares that contract, so if even
// the restore fails the vNIC is left cleanly unbound — findable by a
// later failover or operator Migrate — rather than invisibly bound to
// a device the map does not record.
func (o *Orchestrator) doMigrate(now sim.Time, v *core.VirtualNIC, dev *device) sim.Duration {
	prev := o.assign[v.Name()]
	d, err := v.Remap(dev.owner, dev.name)
	if err != nil {
		if v.Phys() == nil {
			if pd, ok := o.devices[prev]; ok {
				_, _ = v.Bind(pd.owner, pd.name) // best effort; all-or-nothing
			}
		}
		return 0
	}
	o.assign[v.Name()] = dev.name
	return d
}

// pick selects a replacement/allocation device for user per the policy,
// excluding `exclude` and failed devices.
func (o *Orchestrator) pick(user *core.Host, exclude string) (*device, error) {
	usable := func(d *device) bool {
		return d.name != exclude && !d.failed && !d.draining && !d.nic.Failed()
	}
	switch o.policy {
	case LocalFirst:
		// Local device under threshold wins.
		var bestLocal *device
		for _, name := range o.order {
			d := o.devices[name]
			if usable(d) && d.owner == user && d.load < loadThreshold {
				if bestLocal == nil || d.load < bestLocal.load {
					bestLocal = d
				}
			}
		}
		if bestLocal != nil {
			return bestLocal, nil
		}
		fallthrough
	case LeastUtilized:
		var best *device
		for _, name := range o.order {
			d := o.devices[name]
			if !usable(d) {
				continue
			}
			if best == nil || d.load < best.load {
				best = d
			}
		}
		if best == nil {
			return nil, ErrNoDevices
		}
		return best, nil
	default:
		return nil, fmt.Errorf("orch: unknown policy %d", o.policy)
	}
}

// Allocate binds a new virtual NIC for user per the allocation policy
// (§4.2) and returns it.
func (o *Orchestrator) Allocate(user *core.Host, vnicName string, cfg core.VNICConfig) (*core.VirtualNIC, error) {
	if _, ok := o.vnics[vnicName]; ok {
		return nil, fmt.Errorf("orch: vNIC %q already exists", vnicName)
	}
	d, err := o.pick(user, "")
	if err != nil {
		return nil, err
	}
	v := core.NewVirtualNIC(user, vnicName, cfg)
	if _, err := v.Bind(d.owner, d.name); err != nil {
		// Same atomicity as Harvest: reclaim whatever the failed bind
		// allocated and leave no registry entry behind.
		v.Release()
		return nil, err
	}
	o.vnics[vnicName] = v
	o.assign[vnicName] = d.name
	o.vnicOrder = append(o.vnicOrder, vnicName)
	return v, nil
}

// Migrate explicitly moves a vNIC to a named device (operator action).
//
//lint:allow testonly TestExplicitMigrate pins it; TestDrainHostForMaintenance and the drain regressions place a vNIC with it
func (o *Orchestrator) Migrate(vnicName, devName string) error {
	v, ok := o.vnics[vnicName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVNIC, vnicName)
	}
	d, ok := o.devices[devName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPhys, devName)
	}
	if o.doMigrate(o.pod.Engine.Now(), v, d) == 0 {
		return fmt.Errorf("orch: migration of %q to %q failed", vnicName, devName)
	}
	o.migrations++
	return nil
}

// Release tears a vNIC down and forgets it: buffers freed, assignment
// and registry entries removed, pending remaps dropped. This is the
// outbound half of a cross-rack migration — the cluster layer releases
// the vNIC here and allocates a fresh one in the destination rack.
func (o *Orchestrator) Release(vnicName string) error {
	v, ok := o.vnics[vnicName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVNIC, vnicName)
	}
	v.Release()
	delete(o.vnics, vnicName)
	delete(o.assign, vnicName)
	delete(o.pendingRemap, vnicName)
	for i, n := range o.vnicOrder {
		if n == vnicName {
			o.vnicOrder = append(o.vnicOrder[:i], o.vnicOrder[i+1:]...)
			break
		}
	}
	return nil
}

// PickDevice runs the allocation policy and returns the name of the
// device it would choose for user (excluding `exclude` and failed
// devices), without allocating anything. Exposed for composition: the
// cluster layer asks each rack's orchestrator what it would pick when
// weighing local placement against a cross-rack spill.
func (o *Orchestrator) PickDevice(user *core.Host, exclude string) (string, error) {
	d, err := o.pick(user, exclude)
	if err != nil {
		return "", err
	}
	return d.name, nil
}

// FailedDevices counts managed devices currently out of the pick set:
// monitor-confirmed failed, maintenance-drained, or flapping (the NIC
// reads failed right now even if the monitor has not swept yet). The
// cluster policy engine reads it as the rack's failedDevices signal.
func (o *Orchestrator) FailedDevices() int {
	n := 0
	for _, name := range o.order {
		d := o.devices[name]
		if d.failed || d.draining || d.nic.Failed() {
			n++
		}
	}
	return n
}

// MeanLoad returns the mean monitored load across non-failed devices
// (0 when every device is failed/drained) and the count of usable
// devices. The cluster layer uses it as the rack pressure signal.
func (o *Orchestrator) MeanLoad() (float64, int) {
	var sum float64
	n := 0
	for _, name := range o.order {
		d := o.devices[name]
		if d.failed || d.nic.Failed() {
			continue
		}
		sum += d.load
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// Harvest allocates up to n virtual NICs for one host, each backed by
// a DISTINCT physical device — the §1 "peak performance" use case:
// "during demand spikes, a host can harvest all the PCIe devices in
// the pool to achieve higher aggregated performance." Returns the
// handles; fewer than n if the pool is smaller.
//
// Harvest is atomic: if any bind fails, every vNIC this call already
// bound is released (buffers freed, bookkeeping removed) and the error
// is returned with a nil slice — a partial harvest never leaks.
func (o *Orchestrator) Harvest(user *core.Host, namePrefix string, n int, cfg core.VNICConfig) ([]*core.VirtualNIC, error) {
	if n <= 0 {
		return nil, errors.New("orch: harvest count must be positive")
	}
	// Walk assignments in vnicOrder, not map order: the used set's
	// contents are order-insensitive, but every behavioral walk in this
	// package goes through an ordered structure so the determinism
	// contract is visible locally (and machine-checked by poollint).
	used := map[string]bool{}
	for _, vname := range o.vnicOrder {
		if dname, ok := o.assign[vname]; ok {
			used[dname] = true
		}
	}
	var out []*core.VirtualNIC
	for _, dname := range o.order {
		if len(out) == n {
			break
		}
		d := o.devices[dname]
		if d.failed || d.nic.Failed() || used[dname] {
			continue
		}
		vname := fmt.Sprintf("%s-%d", namePrefix, len(out))
		v := core.NewVirtualNIC(user, vname, cfg)
		if _, err := v.Bind(d.owner, d.name); err != nil {
			v.Release() // frees whatever the failed bind allocated
			for _, prev := range out {
				delete(o.vnics, prev.Name())
				delete(o.assign, prev.Name())
				prev.Release()
			}
			o.vnicOrder = o.vnicOrder[:len(o.vnicOrder)-len(out)]
			return nil, fmt.Errorf("orch: harvest %s: %w", vname, err)
		}
		o.vnics[vname] = v
		o.assign[vname] = d.name
		o.vnicOrder = append(o.vnicOrder, vname)
		used[dname] = true
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, ErrNoDevices
	}
	return out, nil
}

// rebalance moves one vNIC from the most- to the least-loaded device
// when the gap exceeds RebalanceGap (§4.2 load balancing).
func (o *Orchestrator) rebalance(now sim.Time) sim.Time {
	if o.stopped {
		return now
	}
	var hot, cold *device
	for _, name := range o.order {
		d := o.devices[name]
		if d.failed {
			continue
		}
		if hot == nil || d.load > hot.load {
			hot = d
		}
		if cold == nil || d.load < cold.load {
			cold = d
		}
	}
	if hot == nil || cold == nil || hot == cold || hot.load-cold.load < o.RebalanceGap {
		return now
	}
	// The moved flow takes its estimated share of the hot device's load
	// with it: 1/n of the load for n resident vNICs (per-flow load is
	// not tracked). Transferring the whole load — or swapping the pair —
	// would invert hot and cold and make the next sweep migrate a vNIC
	// straight back (ping-pong thrash).
	nHot := 0
	for _, vname := range o.vnicOrder {
		if o.assign[vname] == hot.name {
			nHot++
		}
	}
	// Move one vNIC off the hot device.
	for _, vname := range o.vnicOrder {
		if o.assign[vname] != hot.name {
			continue
		}
		v := o.vnics[vname]
		d := o.doMigrate(now, v, cold)
		if d > 0 {
			o.migrations++
			share := hot.load / float64(nHot)
			hot.load -= share
			cold.load += share
			return now + d
		}
	}
	return now
}

// DrainHost migrates every assignment away from a host's devices (for
// maintenance hot-remove, §5) and returns the migrated vNIC count.
//
// The drain is mark-first: the host's devices leave the pick set before
// any migration runs, so allocations, failovers, or rebalances
// triggered mid-drain can never land on the draining host. If any
// migration fails, the marks are rolled back and an error is returned;
// vNICs already moved stay on their (healthy) replacements, and the
// host remains undrained and fully usable.
func (o *Orchestrator) DrainHost(host string) (int, error) {
	h, err := o.pod.Host(host)
	if err != nil {
		return 0, err
	}
	type mark struct {
		d                         *device
		failed, handled, draining bool
	}
	var marks []mark
	for _, name := range o.order {
		d := o.devices[name]
		if d.owner == h {
			marks = append(marks, mark{d, d.failed, d.handled, d.draining})
			d.failed = true
			d.handled = true
			// The draining pin survives monitor sweeps (which would
			// otherwise overwrite failed/handled from the healthy
			// record); it lifts only via rollback or DetachHost plus
			// re-registration.
			d.draining = true
		}
	}
	rollback := func() {
		for _, m := range marks {
			m.d.failed, m.d.handled, m.d.draining = m.failed, m.handled, m.draining
		}
	}
	moved := 0
	now := o.pod.Engine.Now()
	for _, vname := range o.vnicOrder {
		d := o.devices[o.assign[vname]]
		if d.owner != h {
			continue
		}
		v := o.vnics[vname]
		// The draining host's devices are marked failed, so the regular
		// policy pick already excludes them.
		repl, err := o.pick(v.User(), "")
		if err != nil {
			rollback()
			return moved, fmt.Errorf("orch: draining %s: %w", host, err)
		}
		if o.doMigrate(now, v, repl) == 0 {
			rollback()
			return moved, fmt.Errorf("orch: draining %s: migrating %q to %q failed", host, vname, repl.name)
		}
		moved++
		o.migrations++
	}
	return moved, nil
}
