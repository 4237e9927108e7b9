// Package core implements the paper's contribution: software PCIe
// device pooling over a CXL memory pool (§4).
//
// The datapath (§4.1) routes PCIe traffic through CXL pool memory: I/O
// buffers live in the software-coherent shared segment, devices DMA
// to/from them through their own host's CXL link, and hosts that are
// not physically connected to a device drive it by forwarding doorbell
// operations over sub-microsecond shared-memory channels to a pooling
// agent on the owning host.
//
// The control plane (§4.2, package orch) assigns physical devices to
// virtual devices, monitors load and health via records in shared
// memory, and remaps on failure or imbalance.
package core

import (
	"errors"
	"fmt"

	"cxlpool/internal/cache"
	"cxlpool/internal/cxl"
	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/shm"
	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

// HostDDRBase is where each host's private DRAM sits in its own
// physical address map. The CXL pool window is mapped at the pod's pool
// base (a high address), so the two never collide.
const HostDDRBase mem.Address = 0

const (
	// podDevices is the pod's MHD count.
	podDevices = 2
	// hostDDR is each host's private DRAM, for comparison paths.
	hostDDR = 16 << 20
)

// Config sizes a pod for pooling experiments.
type Config struct {
	// Hosts is the number of hosts to attach (named "host0"...).
	Hosts int
	// NICsPerHost physically attaches this many NICs to each host
	// (default 1; set 0 on some hosts via AddNIC instead).
	NICsPerHost int
	// DeviceSize is CXL media bytes per MHD (default 64 MiB).
	DeviceSize int
	// SharedSize is the software-coherent shared segment (default 16 MiB).
	SharedSize int
	// AgentPollInterval is the pooling agents' channel polling cadence
	// (default: spin, ~300 ns effective).
	AgentPollInterval sim.Duration
	// Seed drives all randomness.
	Seed int64
}

// Pod is the full simulated rack slice: hosts, CXL pool, Ethernet
// fabric, and the shared-memory control structures.
type Pod struct {
	Engine *sim.Engine
	Fabric *netsim.Fabric
	CXL    *cxl.Pod

	cfg   Config
	hosts map[string]*Host
	order []string

	// sharedAlloc carves channels, records, and I/O buffers out
	// of the pool's shared segment. Addresses are identical from every
	// host, which is what makes the channels work.
	sharedAlloc *mem.Allocator

	// vnics is the pod-wide virtual-device registry used by the control
	// plane to resolve names in remote commands. Names must be unique
	// pod-wide; creating a second device with an existing name replaces
	// the registry entry.
	vnics map[string]*VirtualNIC
}

// NewPod builds and wires a pod.
func NewPod(cfg Config) (*Pod, error) {
	if cfg.Hosts <= 0 {
		return nil, errors.New("core: pod needs at least one host")
	}
	if cfg.DeviceSize <= 0 {
		cfg.DeviceSize = 64 << 20
	}
	if cfg.SharedSize <= 0 {
		cfg.SharedSize = 16 << 20
	}
	if cfg.NICsPerHost < 0 {
		return nil, errors.New("core: negative NICsPerHost")
	}
	engine := sim.NewEngine(cfg.Seed)
	cxlPod, err := cxl.NewPod("pod", cxl.PodConfig{
		Devices:        podDevices,
		PortsPerDevice: cxl.MaxMHDPorts,
		DeviceSize:     cfg.DeviceSize,
		SharedSize:     cfg.SharedSize,
	}, engine.Rand().Fork())
	if err != nil {
		return nil, err
	}
	p := &Pod{
		Engine:      engine,
		Fabric:      netsim.NewFabric("tor", engine),
		CXL:         cxlPod,
		cfg:         cfg,
		hosts:       make(map[string]*Host),
		sharedAlloc: mem.NewAllocator(cxlPod.SharedBase(), cfg.SharedSize),
		vnics:       make(map[string]*VirtualNIC),
	}
	for i := 0; i < cfg.Hosts; i++ {
		name := fmt.Sprintf("host%d", i)
		h, err := p.AttachHost(name)
		if err != nil {
			return nil, err
		}
		for j := 0; j < cfg.NICsPerHost; j++ {
			if _, err := h.AddNIC(fmt.Sprintf("%s-nic%d", name, j)); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// Host returns a host by name.
func (p *Pod) Host(name string) (*Host, error) {
	h, ok := p.hosts[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown host %q", name)
	}
	return h, nil
}

// Hosts returns host names in attachment order.
func (p *Pod) Hosts() []string {
	out := make([]string, len(p.order))
	copy(out, p.order)
	return out
}

// SharedAlloc allocates from the software-coherent shared segment.
func (p *Pod) SharedAlloc(n int) (mem.Address, error) { return p.sharedAlloc.Alloc(n) }

// SharedFree returns shared-segment memory.
func (p *Pod) SharedFree(a mem.Address) error { return p.sharedAlloc.Free(a) }

// NewChannel carves a fresh SPSC channel out of the shared segment.
// The carve is sanitized first: channel footprints are recycled when a
// binding is torn down, and a new ring on stale memory would replay
// the previous incarnation's slots as fresh messages.
func (p *Pod) NewChannel(slots int) (*shm.Channel, error) {
	n := shm.Footprint(slots)
	addr, err := p.SharedAlloc(n)
	if err != nil {
		return nil, fmt.Errorf("core: allocating channel: %w", err)
	}
	if err := p.CXL.Sanitize(addr, n); err != nil {
		_ = p.SharedFree(addr)
		return nil, fmt.Errorf("core: sanitizing channel: %w", err)
	}
	return shm.NewChannel(addr, slots)
}

// AttachHost hot-adds a host to the pod (§5 "operational implications").
func (p *Pod) AttachHost(name string) (*Host, error) {
	if _, ok := p.hosts[name]; ok {
		return nil, fmt.Errorf("core: host %q already exists", name)
	}
	att, err := p.CXL.AttachHost(name)
	if err != nil {
		return nil, err
	}
	ddr := mem.NewRegion(name+"/ddr", HostDDRBase, hostDDR, cxl.DDRTiming(), p.Engine.Rand().Fork())
	space := mem.NewAddressSpace()
	if err := space.Add(ddr, HostDDRBase, hostDDR); err != nil {
		return nil, err
	}
	if err := space.Add(att.Memory(), p.CXL.Devices()[0].Base(), p.CXL.Capacity()); err != nil {
		return nil, err
	}
	h := &Host{
		name:  name,
		pod:   p,
		att:   att,
		ddr:   ddr,
		space: space,
		cache: cache.New(name, space, 0),
		nics:  make(map[string]*nicsim.NIC),
	}
	h.agent = newAgent(h, p.cfg.AgentPollInterval)
	p.hosts[name] = h
	p.order = append(p.order, name)
	return h, nil
}

// DetachHost hot-removes a host: caches flushed, agent stopped, CXL
// links freed. Virtual devices bound to the host's NICs must be
// remapped by the orchestrator first.
func (p *Pod) DetachHost(name string) error {
	h, ok := p.hosts[name]
	if !ok {
		return fmt.Errorf("core: unknown host %q", name)
	}
	// Flush dirty pool lines so no shared data is stranded in a dead
	// host's cache.
	if _, err := h.cache.FlushAll(p.Engine.Now()); err != nil {
		return err
	}
	h.agent.stop()
	if err := p.CXL.DetachHost(name); err != nil {
		return err
	}
	delete(p.hosts, name)
	for i, n := range p.order {
		if n == name {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	return nil
}

// Host is one server in the pod.
type Host struct {
	name  string
	pod   *Pod
	att   *cxl.Attachment
	ddr   *mem.Region
	space *mem.AddressSpace
	cache *cache.Cache
	nics  map[string]*nicsim.NIC
	ssds  map[string]*ssdsim.SSD
	agent *Agent
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Pod returns the owning pod.
func (h *Host) Pod() *Pod { return h.pod }

// Cache returns the host's CPU cache (over DDR + pool window).
func (h *Host) Cache() *cache.Cache { return h.cache }

// Space returns the host's physical address space.
func (h *Host) Space() *mem.AddressSpace { return h.space }

// Agent returns the host's pooling agent.
func (h *Host) Agent() *Agent { return h.agent }

// AddNIC physically attaches a new NIC to this host and wires it to the
// pod fabric. The NIC's DMA view is the host's address space, so it can
// reach both local DDR and the CXL pool window.
func (h *Host) AddNIC(name string) (*nicsim.NIC, error) {
	return h.AddNICRate(name, 0)
}

// AddNICRate is AddNIC with an explicit line rate (heterogeneous
// racks); rate <= 0 keeps the 100 Gbps default.
func (h *Host) AddNICRate(name string, rate mem.GBps) (*nicsim.NIC, error) {
	if _, ok := h.nics[name]; ok {
		return nil, fmt.Errorf("core: NIC %q already attached to %s", name, h.name)
	}
	n := nicsim.New(name, nicsim.Config{LineRate: rate})
	n.AttachHostMemory(h.space)
	n.AttachFabric(h.pod.Fabric)
	if err := h.pod.Fabric.Attach(name, n.LineRate(), n); err != nil {
		return nil, err
	}
	h.nics[name] = n
	return n, nil
}

// NIC returns a physically attached NIC by name.
func (h *Host) NIC(name string) (*nicsim.NIC, error) {
	n, ok := h.nics[name]
	if !ok {
		return nil, fmt.Errorf("core: host %s has no NIC %q", h.name, name)
	}
	return n, nil
}

// NICs lists the host's physical NICs.
func (h *Host) NICs() []*nicsim.NIC {
	out := make([]*nicsim.NIC, 0, len(h.nics))
	for _, n := range h.nics {
		out = append(out, n)
	}
	return out
}

// AddSSD physically attaches an NVMe SSD to this host. Its DMA engine
// sees the host's address space (local DDR + CXL pool window).
func (h *Host) AddSSD(name string, capacity int64) (*ssdsim.SSD, error) {
	if _, ok := h.ssds[name]; ok {
		return nil, fmt.Errorf("core: SSD %q already attached to %s", name, h.name)
	}
	s := ssdsim.New(name, h.pod.Engine, capacity)
	s.AttachHostMemory(h.space)
	if h.ssds == nil {
		h.ssds = make(map[string]*ssdsim.SSD)
	}
	h.ssds[name] = s
	return s, nil
}

// SSD returns a physically attached SSD by name.
func (h *Host) SSD(name string) (*ssdsim.SSD, error) {
	s, ok := h.ssds[name]
	if !ok {
		return nil, fmt.Errorf("core: host %s has no SSD %q", h.name, name)
	}
	return s, nil
}
