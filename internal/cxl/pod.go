package cxl

import (
	"errors"
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Pod is a set of hosts attached to a shared pool of MHDs within a rack
// (§3: "the set of hosts connected to a CXL pool is called a CXL pod").
// The pod owns the pool address map, per-host attachments, the dynamic
// capacity allocator, and the shared-memory segment used for software
// coherence and message channels.
type Pod struct {
	name    string
	rng     *sim.Rand
	devices []*MHD
	hosts   map[string]*Attachment
	order   []string // attachment order, for deterministic iteration

	// store holds every device's media in pool order (see NewPod).
	store *mem.Store

	// Pool-wide dynamic-capacity allocator (DCD-style, §3 footnote 2):
	// hosts allocate and release pool memory at runtime.
	alloc *mem.Allocator

	// The shared segment is a small slice of the pool accessible to all
	// hosts (§4: "a small fraction of memory from the CXL pool serves as
	// software-coherent shared memory").
	sharedBase mem.Address
	sharedSize int

	// hostLink is the link shape given to each new attachment.
	hostLink LinkConfig
	// quotaPerHost caps per-host dynamic capacity (0 = unlimited).
	quotaPerHost int
}

// PodConfig sizes a pod.
type PodConfig struct {
	// Devices is the MHD count; multiple MHDs give λ-way redundancy and
	// interleaving targets (§5 "highly-available CXL pods").
	Devices int
	// PortsPerDevice bounds pod size (hosts ≤ ports).
	PortsPerDevice int
	// DeviceSize is media bytes per MHD.
	DeviceSize int
	// SharedSize is the shared segment carved from the first device.
	SharedSize int
	// HostLink is the per-host, per-device link shape (default ×8 Gen5).
	HostLink LinkConfig
	// QuotaPerHost caps each host's dynamic-capacity allocation (0 = no
	// cap). DCD-style quotas keep one tenant from draining the pool.
	QuotaPerHost int
}

// Attachment is one host's connection to the pod: one PortView per MHD.
type Attachment struct {
	host  string
	pod   *Pod
	views []*PortView
	cfg   LinkConfig
	// interleave spans all devices for bandwidth aggregation.
	interleave *Interleave
	detached   bool
	allocs     []mem.Address
	allocSizes map[mem.Address]int
	allocTotal int
}

// NewPod builds a pod with the given shape. Hosts attach afterwards with
// AttachHost.
func NewPod(name string, cfg PodConfig, rng *sim.Rand) (*Pod, error) {
	if cfg.Devices <= 0 {
		return nil, errors.New("cxl: pod needs at least one device")
	}
	if cfg.PortsPerDevice <= 0 || cfg.PortsPerDevice > MaxMHDPorts {
		return nil, fmt.Errorf("cxl: invalid ports per device %d", cfg.PortsPerDevice)
	}
	if cfg.DeviceSize <= 0 || cfg.DeviceSize%InterleaveGranularity != 0 {
		return nil, fmt.Errorf("cxl: pod device size %d must be a positive multiple of %d",
			cfg.DeviceSize, InterleaveGranularity)
	}
	if cfg.SharedSize < 0 || cfg.SharedSize > cfg.DeviceSize {
		return nil, errors.New("cxl: shared size must fit within the first device")
	}
	if cfg.HostLink.Lanes == 0 {
		cfg.HostLink = X8Gen5
	}
	p := &Pod{
		name:  name,
		rng:   rng,
		hosts: make(map[string]*Attachment),
	}
	// Map devices contiguously starting at a recognizable pool base.
	// Every host interleaves the whole pool across its device links at
	// 256 B, so the media is stored in that order: pool offset off is
	// store offset off, whichever device holds it, and an interleaved
	// access moves its bytes with one copy.
	const poolBase mem.Address = 0x4000_0000_0000
	p.store = mem.NewStore(cfg.Devices, cfg.DeviceSize, InterleaveGranularity)
	for i := 0; i < cfg.Devices; i++ {
		devName := fmt.Sprintf("%s/mhd%d", name, i)
		base := poolBase + mem.Address(i*cfg.DeviceSize)
		media := p.store.Region(i, devName+"/media", base, mediaTiming, rng)
		p.devices = append(p.devices, newMHD(devName, media, cfg.PortsPerDevice))
	}
	p.sharedBase = poolBase
	p.sharedSize = cfg.SharedSize
	// Dynamic capacity comes from everything after the shared segment.
	p.alloc = mem.NewAllocator(poolBase+mem.Address(cfg.SharedSize),
		cfg.Devices*cfg.DeviceSize-cfg.SharedSize)
	p.hostLink = cfg.HostLink
	p.quotaPerHost = cfg.QuotaPerHost
	return p, nil
}

// Name returns the pod name.
func (p *Pod) Name() string { return p.name }

// Devices returns the pod's MHDs.
func (p *Pod) Devices() []*MHD { return p.devices }

// Redundancy returns λ, the number of independent device paths (§5:
// "dense topologies that offer λ redundant paths").
func (p *Pod) Redundancy() int { return len(p.devices) }

// Capacity returns total pool bytes.
func (p *Pod) Capacity() int {
	n := 0
	for _, d := range p.devices {
		n += d.Size()
	}
	return n
}

// FreeCapacity returns unallocated dynamic-capacity bytes.
func (p *Pod) FreeCapacity() int { return p.alloc.FreeBytes() }

// SharedBase and SharedSize describe the software-coherent shared segment.
func (p *Pod) SharedBase() mem.Address { return p.sharedBase }

// SharedSize returns the size of the shared segment in bytes.
func (p *Pod) SharedSize() int { return p.sharedSize }

// Hosts returns attached host names in attachment order.
func (p *Pod) Hosts() []string {
	out := make([]string, len(p.order))
	copy(out, p.order)
	return out
}

// AttachHost connects a host to every MHD in the pod (the dense topology
// of [32]) and returns its attachment. Hot-add per §5.
func (p *Pod) AttachHost(host string) (*Attachment, error) {
	if _, ok := p.hosts[host]; ok {
		return nil, fmt.Errorf("cxl: host %q already attached to pod %s", host, p.name)
	}
	a := &Attachment{host: host, pod: p, cfg: p.hostLink}
	var members []mem.Memory
	var bases []mem.Address
	for _, d := range p.devices {
		v, err := d.Connect(p.hostLink)
		if err != nil {
			// Roll back partial connections.
			for _, pv := range a.views {
				_ = pv.Detach()
			}
			return nil, fmt.Errorf("cxl: attaching %q: %w", host, err)
		}
		a.views = append(a.views, v)
		members = append(members, v)
		bases = append(bases, d.Base())
	}
	// Bandwidth-aggregating 256 B interleave across all device links;
	// every host performs the same global→device translation, so shared
	// addresses land on the same media bytes from every host.
	a.interleave = NewInterleaveAt(p.devices[0].Base(), p.Capacity(), members, bases)
	p.hosts[host] = a
	p.order = append(p.order, host)
	return a, nil
}

// DetachHost hot-removes a host (§5 "operational implications"): its
// links are freed and its dynamic allocations released back to the pool.
func (p *Pod) DetachHost(host string) error {
	a, ok := p.hosts[host]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotAttached, host)
	}
	for _, addr := range a.allocs {
		_ = p.alloc.Free(addr)
	}
	a.allocs = nil
	a.allocSizes = nil
	a.allocTotal = 0
	for _, v := range a.views {
		_ = v.Detach()
	}
	a.detached = true
	delete(p.hosts, host)
	for i, h := range p.order {
		if h == host {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	return nil
}

// Attachment returns the named host's attachment.
func (p *Pod) Attachment(host string) (*Attachment, error) {
	a, ok := p.hosts[host]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotAttached, host)
	}
	return a, nil
}

// Host returns the attachment's host name.
func (a *Attachment) Host() string { return a.host }

// Memory returns the host's view of the whole pool: interleaved across
// all of its device links.
func (a *Attachment) Memory() mem.Memory { return a.interleave }

// View returns the host's port view of device i (single-link placement,
// used by the interleaving ablation).
func (a *Attachment) View(i int) *PortView {
	if i < 0 || i >= len(a.views) {
		return nil
	}
	return a.views[i]
}

// ErrQuotaExceeded reports a host exceeding its DCD capacity quota.
var ErrQuotaExceeded = errors.New("cxl: host capacity quota exceeded")

// Alloc grabs dynamic pool capacity for this host. The returned range
// is sanitized (zeroed) by the pool controller before handover, so a
// host can never read a previous tenant's data — the isolation behavior
// DCD-capable devices must provide.
func (a *Attachment) Alloc(size int) (mem.Address, error) {
	if a.detached {
		return 0, ErrNotAttached
	}
	if q := a.pod.quotaPerHost; q > 0 && a.allocTotal+size > q {
		return 0, fmt.Errorf("%w: used %d + want %d > quota %d",
			ErrQuotaExceeded, a.allocTotal, size, q)
	}
	addr, err := a.pod.alloc.Alloc(size)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrPoolExceeded, err)
	}
	// Sanitize: the media behind [addr, addr+size) is zeroed before
	// handover.
	rounded := int(mem.AlignUp(mem.Address(size)))
	if err := a.pod.sanitize(addr, rounded); err != nil {
		_ = a.pod.alloc.Free(addr)
		return 0, err
	}
	a.allocs = append(a.allocs, addr)
	if a.allocSizes == nil {
		a.allocSizes = make(map[mem.Address]int)
	}
	a.allocSizes[addr] = rounded
	a.allocTotal += rounded
	return addr, nil
}

// AllocatedBytes returns the host's current dynamic-capacity usage.
func (a *Attachment) AllocatedBytes() int { return a.allocTotal }

// Sanitize zeroes the pool media behind [addr, addr+size) without
// timing — the background controller operation run before capacity is
// handed to a host. Exposed for control-plane reuse of shared-segment
// carves: a channel built on recycled memory must not observe the
// previous tenant's ring state (stale slot sequence numbers replay as
// fresh messages).
func (p *Pod) Sanitize(addr mem.Address, size int) error {
	return p.sanitize(addr, size)
}

// sanitize zeroes pool media without timing (a background controller
// operation completed before the capacity is handed to the host). The
// store holds the pool in pool order, so this is one range of it, and
// no host's interleave is needed to address it. Media that was never
// written already reads as zero and is left untouched.
func (p *Pod) sanitize(addr mem.Address, size int) error {
	base := p.devices[0].Base()
	if addr < base || size < 0 || uint64(addr-base)+uint64(size) > uint64(p.store.Size()) {
		return fmt.Errorf("%w: sanitize [%#x,+%d) outside pod %s",
			mem.ErrOutOfRange, uint64(addr), size, p.name)
	}
	p.store.Zero(int(addr-base), size)
	return nil
}

// Free returns dynamic capacity to the pool.
func (a *Attachment) Free(addr mem.Address) error {
	idx := -1
	for i, x := range a.allocs {
		if x == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("cxl: host %q does not own %#x", a.host, uint64(addr))
	}
	a.allocs = append(a.allocs[:idx], a.allocs[idx+1:]...)
	if sz, ok := a.allocSizes[addr]; ok {
		a.allocTotal -= sz
		if a.allocTotal < 0 {
			a.allocTotal = 0
		}
		delete(a.allocSizes, addr)
	}
	return a.pod.alloc.Free(addr)
}
