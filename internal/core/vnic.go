package core

import (
	"errors"
	"fmt"
	"slices"

	"cxlpool/internal/mem"
	"cxlpool/internal/metrics"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/pcie"
	"cxlpool/internal/shm"
	"cxlpool/internal/sim"
)

// RemapLatency is the software control-plane cost of rebinding a
// virtual NIC to a different physical NIC: channel setup, buffer
// posting, and mapping updates. Compare pcie.ReassignLatency (50 ms)
// for the hardware PCIe-switch hot-plug flow — the flexibility argument
// of §1 in one constant.
const RemapLatency sim.Duration = 20 * sim.Microsecond

// Errors.
var (
	ErrNotBound    = errors.New("core: virtual NIC not bound to a physical NIC")
	ErrNoTxBuffer  = errors.New("core: out of TX buffers (completions lagging)")
	ErrPayloadSize = errors.New("core: payload exceeds buffer size")
)

// VNICConfig sizes a virtual NIC.
type VNICConfig struct {
	// BufSize is the I/O buffer size (default MTU).
	BufSize int
	// RxBuffers are posted to the physical device (default 64).
	RxBuffers int
	// TxBuffers is the send-side buffer pool (default 64).
	TxBuffers int
	// ChannelSlots sizes each forwarding channel (default 256).
	ChannelSlots int
}

func (c *VNICConfig) defaults() {
	if c.BufSize <= 0 {
		c.BufSize = nicsim.MTU
	}
	if c.RxBuffers <= 0 {
		c.RxBuffers = 64
	}
	if c.TxBuffers <= 0 {
		c.TxBuffers = 64
	}
	if c.ChannelSlots <= 0 {
		c.ChannelSlots = 256
	}
}

// VirtualNIC is the paper's pooled device abstraction: a NIC handle
// held by one host (the user) and served by a physical NIC that may be
// attached to a different host (the owner). All I/O buffers live in the
// CXL pool's shared segment; doorbells and completions travel over
// shared-memory channels.
type VirtualNIC struct {
	name string
	user *Host
	cfg  VNICConfig

	owner *Host
	phys  *nicsim.NIC

	// Channel endpoints (user side).
	txSend *shm.Sender
	// compSend is the owner-side completion publisher.
	compSend *shm.Sender
	// Agent services: ownerSvc drains TX/repost descriptors on the
	// owner; userSvc drains completions on the user.
	ownerSvc *service
	userSvc  *service

	txFree  []mem.Address
	rxAddrs []mem.Address // owned RX buffers (for cleanup/remap)
	chAddrs []mem.Address // owned channel footprints (freed on unbind)

	// descBuf is the descriptor staging scratch: every encode is
	// consumed synchronously by a channel Send (which copies the bytes
	// into its slot), so one buffer serves all descriptor traffic.
	descBuf [descSize]byte
	// rxBuf is the RX payload staging scratch handed to the OnReceive
	// callback; the bytes are valid only for the duration of the
	// callback (see README "Buffer ownership & reuse").
	rxBuf []byte

	onRecv func(now sim.Time, src string, payload []byte)

	// Stats.
	sent      uint64
	delivered uint64
	txErrors  uint64
	compDrops uint64
	remaps    uint64

	// SendLatency records the user-visible cost of handing a packet to
	// the pool datapath (buffer write + descriptor send).
	SendLatency *metrics.Recorder
	// E2ELatency records stamp-to-delivery latency for received packets
	// whose stamp was set by the sender.
	E2ELatency *metrics.Recorder
}

// NewVirtualNIC creates an unbound virtual NIC for user and registers
// it in the pod's device registry (for control-plane name resolution).
func NewVirtualNIC(user *Host, name string, cfg VNICConfig) *VirtualNIC {
	cfg.defaults()
	v := &VirtualNIC{
		name:        name,
		user:        user,
		cfg:         cfg,
		SendLatency: metrics.NewRecorder(0),
		E2ELatency:  metrics.NewRecorder(0),
	}
	user.pod.vnics[name] = v
	return v
}

// Name returns the virtual device name.
func (v *VirtualNIC) Name() string { return v.name }

// User returns the host using the device.
func (v *VirtualNIC) User() *Host { return v.user }

// Owner returns the host whose physical NIC currently serves this
// device (nil when unbound).
//
//lint:allow testonly TestAllocateLocalFirst, TestDrainHostForMaintenance and TestDrainMarksSurviveMonitorSweeps check which host serves a vNIC
func (v *VirtualNIC) Owner() *Host { return v.owner }

// Phys returns the backing physical NIC (nil when unbound).
func (v *VirtualNIC) Phys() *nicsim.NIC { return v.phys }

// Stats returns (sent, delivered, txErrors, remaps).
func (v *VirtualNIC) Stats() (sent, delivered, txErrors, remaps uint64) {
	return v.sent, v.delivered, v.txErrors, v.remaps
}

// OnReceive installs the application's delivery callback. The payload
// slice is the vNIC's reusable RX scratch: it is valid only until the
// callback returns, after which the next delivery overwrites it.
// Callbacks that need the bytes later must copy them.
func (v *VirtualNIC) OnReceive(fn func(now sim.Time, src string, payload []byte)) {
	v.onRecv = fn
}

// Bind attaches the virtual NIC to a physical NIC on owner. It builds
// the two shared-memory channels, registers with both agents, allocates
// TX buffers, and posts RX buffers to the device. Returns the
// simulated control-plane latency.
//
// Bind is all-or-nothing: if any step fails after the previous binding
// has been torn down, the partial new state (channels, buffer pools,
// RX postings) is reclaimed and the vNIC is left cleanly unbound —
// never half-bound. Only a failure to resolve physName leaves an
// existing binding intact.
func (v *VirtualNIC) Bind(owner *Host, physName string) (sim.Duration, error) {
	phys, err := owner.NIC(physName)
	if err != nil {
		return 0, err
	}
	if v.phys != nil {
		v.unbind()
	}
	if err := v.bind(owner, phys); err != nil {
		v.unbind()
		return 0, err
	}
	return RemapLatency, nil
}

// bind builds the binding; on error the caller reclaims the partial
// state (owner/phys are set first so cleanup can unpost RX buffers).
func (v *VirtualNIC) bind(owner *Host, phys *nicsim.NIC) error {
	pod := v.user.pod
	txCh, err := pod.NewChannel(v.cfg.ChannelSlots)
	if err != nil {
		return err
	}
	v.chAddrs = append(v.chAddrs, txCh.Base())
	compCh, err := pod.NewChannel(v.cfg.ChannelSlots)
	if err != nil {
		return err
	}
	v.chAddrs = append(v.chAddrs, compCh.Base())
	v.owner = owner
	v.phys = phys
	v.txSend = txCh.NewSender(v.user.cache)
	v.compSend = compCh.NewSender(owner.cache)
	v.ownerSvc = owner.agent.addService(txCh.NewReceiver(owner.cache), v.handleOwner)
	v.userSvc = v.user.agent.addService(compCh.NewReceiver(v.user.cache), v.handleUser)

	// Allocate TX pool and post RX buffers (control-plane setup).
	v.txFree = slices.Grow(v.txFree[:0], v.cfg.TxBuffers)
	for i := 0; i < v.cfg.TxBuffers; i++ {
		a, err := pod.SharedAlloc(v.cfg.BufSize)
		if err != nil {
			return fmt.Errorf("core: vNIC TX pool: %w", err)
		}
		v.txFree = append(v.txFree, a)
	}
	v.rxAddrs = slices.Grow(v.rxAddrs[:0], v.cfg.RxBuffers)
	for i := 0; i < v.cfg.RxBuffers; i++ {
		a, err := pod.SharedAlloc(v.cfg.BufSize)
		if err != nil {
			return fmt.Errorf("core: vNIC RX pool: %w", err)
		}
		v.rxAddrs = append(v.rxAddrs, a)
	}
	if err := phys.PostRxBuffers(v.rxAddrs, v.cfg.BufSize); err != nil {
		return err
	}
	phys.OnReceive(v.ownerRxCompletion)
	return nil
}

// unbind deactivates channel service and releases buffers.
func (v *VirtualNIC) unbind() {
	if v.ownerSvc != nil {
		v.ownerSvc.active = false
		v.ownerSvc = nil
	}
	if v.userSvc != nil {
		v.userSvc.active = false
		v.userSvc = nil
	}
	v.compSend = nil
	pod := v.user.pod
	for _, a := range v.txFree {
		_ = pod.SharedFree(a)
	}
	v.txFree = v.txFree[:0]
	// RX buffers must leave the device's ring before their memory
	// returns to the segment: a descriptor left behind would strand
	// ring depth and DMA future packets into reallocated memory.
	if v.phys != nil {
		v.phys.UnpostRx(v.rxAddrs)
	}
	for _, a := range v.rxAddrs {
		_ = pod.SharedFree(a)
	}
	v.rxAddrs = v.rxAddrs[:0]
	// Channels are torn down with the binding: in-flight descriptors
	// are lost (as documented for Remap) and the deactivated services
	// never touch the rings again, so the footprints return to the
	// segment instead of leaking one channel pair per rebind.
	for _, a := range v.chAddrs {
		_ = pod.SharedFree(a)
	}
	v.chAddrs = v.chAddrs[:0]
	v.owner = nil
	v.phys = nil
	v.txSend = nil
}

// Unbind detaches the virtual NIC from its physical device: channel
// services deactivate and the shared-segment channel and I/O buffer
// footprints are returned. The handle stays registered and can be
// re-Bound later. Idempotent — a no-op when already unbound — and it
// also reclaims whatever a partially failed Bind managed to allocate.
func (v *VirtualNIC) Unbind() { v.unbind() }

// Release unbinds the virtual NIC and removes it from the pod's device
// registry. The handle is dead afterwards; callers that move a tenant
// to another pod (cluster federation) release here and create a fresh
// vNIC there. If a newer device already took over the name, the
// registry entry is left alone.
func (v *VirtualNIC) Release() {
	v.Unbind()
	if v.user.pod.vnics[v.name] == v {
		delete(v.user.pod.vnics, v.name)
	}
}

// Remap rebinds the device to a different physical NIC (failover or
// load shifting, §4.2). In-flight packets on the old device are lost,
// as on real hardware.
//
// Remap inherits Bind's all-or-nothing contract: a remap that fails
// midway (channel or buffer allocation, RX posting) leaves the vNIC
// cleanly unbound for the caller to rebind — never half-bound to the
// new device while bookkeeping elsewhere still names the old one. A
// failure to resolve physName leaves the existing binding intact.
func (v *VirtualNIC) Remap(owner *Host, physName string) (sim.Duration, error) {
	if _, err := v.Bind(owner, physName); err != nil {
		return 0, err
	}
	v.remaps++
	return RemapLatency, nil
}

// Local reports whether the device is served by the user's own NIC
// (the non-pooled fast path: no channels, no agent forwarding).
func (v *VirtualNIC) Local() bool { return v.owner == v.user }

// Send hands a payload to the datapath. On the pooled (remote) path it
// NT-stores the payload into a shared CXL buffer (software coherence:
// the device on another host must see the bytes) and publishes a TX
// descriptor on the channel; transmission proceeds asynchronously on
// the owner. On the local path it rings the local device's doorbell
// directly, with no channel or agent involved — the baseline datapath
// the pooled one is compared against. The returned duration is the
// user-side cost.
func (v *VirtualNIC) Send(now sim.Time, dst string, payload []byte) (sim.Duration, error) {
	if v.phys == nil {
		return 0, ErrNotBound
	}
	if len(payload) > v.cfg.BufSize {
		return 0, fmt.Errorf("%w: %d > %d", ErrPayloadSize, len(payload), v.cfg.BufSize)
	}
	if len(v.txFree) == 0 {
		return 0, ErrNoTxBuffer
	}
	addr := v.txFree[len(v.txFree)-1]
	v.txFree = v.txFree[:len(v.txFree)-1]
	// The buffer must be visible to the device's DMA either way (DMA
	// reads memory, not this CPU's cache).
	d, err := v.user.cache.NTStore(now, addr, payload)
	if err != nil {
		return 0, err
	}
	if v.Local() {
		// Fast path: local doorbell, immediate buffer recycling (the
		// device fetches the payload synchronously in this model).
		d += pcie.MMIOWriteLatency
		if _, err := v.phys.Transmit(now+d, addr, len(payload), dst, now); err != nil {
			v.txFree = append(v.txFree, addr)
			v.txErrors++
			return d, err
		}
		v.txFree = append(v.txFree, addr)
		v.sent++
		v.SendLatency.Record(float64(d))
		return d, nil
	}
	enc, err := descriptor{kind: descTx, len: uint16(len(payload)), addr: addr, stamp: now, name: dst}.encodeInto(v.descBuf[:])
	if err != nil {
		return 0, err
	}
	sd, err := v.txSend.Send(now+d, enc)
	if err != nil {
		// Channel full: return the buffer, surface backpressure.
		v.txFree = append(v.txFree, addr)
		return d + sd, err
	}
	v.sent++
	total := d + sd
	v.SendLatency.Record(float64(total))
	return total, nil
}

// handleOwner runs on the owner's agent for each user→owner descriptor:
// TX doorbells and RX buffer reposts.
func (v *VirtualNIC) handleOwner(cur sim.Time, payload []byte) sim.Time {
	desc, err := decodeDescriptor(payload)
	if err != nil {
		return cur // corrupt descriptor: drop
	}
	agent := v.owner.agent
	switch desc.kind {
	case descTx:
		// Ring the device: one local MMIO doorbell, then the NIC fetches
		// the buffer from pool memory by itself.
		cur += pcie.MMIOWriteLatency
		if _, err := v.phys.Transmit(cur, desc.addr, int(desc.len), desc.name, desc.stamp); err != nil {
			// Device failed or misconfigured; the orchestrator's health
			// monitoring reacts to the resulting error counter.
			v.txErrors++
			return cur
		}
		agent.forwarded++
		// Tell the user the TX buffer can be reused.
		enc, _ := descriptor{kind: descTxComp, addr: desc.addr}.encodeInto(v.descBuf[:])
		sd, err := v.compSend.Send(cur, enc)
		cur += sd
		if err != nil {
			v.compDrops++
		}
	case descRepost:
		cur += pcie.MMIOWriteLatency
		if err := v.phys.PostRxBuffer(desc.addr, v.cfg.BufSize); err != nil {
			v.txErrors++
		}
	}
	return cur
}

// handleUser runs on the user's agent for each owner→user completion.
func (v *VirtualNIC) handleUser(cur sim.Time, payload []byte) sim.Time {
	desc, err := decodeDescriptor(payload)
	if err != nil {
		return cur
	}
	switch desc.kind {
	case descRxComp:
		cur = v.deliverRx(cur, desc)
	case descTxComp:
		v.txFree = append(v.txFree, desc.addr)
	}
	return cur
}

// ownerRxCompletion runs on the owner when the physical NIC finishes
// DMA-ing an inbound packet into a shared CXL buffer: publish an RXCOMP
// descriptor to the user — or, on the local fast path, deliver straight
// to the application (driver interrupt path, no channel).
func (v *VirtualNIC) ownerRxCompletion(now sim.Time, c nicsim.RxCompletion) {
	if v.ownerSvc == nil || !v.ownerSvc.active {
		return
	}
	if v.Local() {
		cur := v.deliverLocal(now, c)
		_ = cur
		return
	}
	enc, err := descriptor{
		kind:  descRxComp,
		len:   uint16(c.Len),
		addr:  c.Addr,
		stamp: c.Stamp,
		name:  c.Src,
	}.encodeInto(v.descBuf[:])
	if err != nil {
		v.compDrops++
		return
	}
	if _, err := v.compSend.Send(now, enc); err != nil {
		v.compDrops++
	}
}

// deliverLocal is the fast RX path when the device is locally attached:
// read the payload, invoke the app, repost the buffer — no channels. A
// failed read drops the frame but still reposts its buffer, so the RX
// ring keeps its depth.
func (v *VirtualNIC) deliverLocal(now sim.Time, c nicsim.RxCompletion) sim.Time {
	if cap(v.rxBuf) < c.Len {
		v.rxBuf = make([]byte, c.Len)
	}
	payload := v.rxBuf[:c.Len]
	d, err := v.user.cache.ReadStream(now, c.Addr, payload)
	cur := now + d
	if err != nil {
		v.compDrops++
	} else {
		v.delivered++
		if c.Stamp > 0 {
			v.E2ELatency.Record(float64(cur - c.Stamp))
		}
		if v.onRecv != nil {
			v.onRecv(cur, c.Src, payload)
		}
	}
	if err := v.phys.PostRxBuffer(c.Addr, v.cfg.BufSize); err != nil {
		v.txErrors++
	}
	return cur
}

// deliverRx runs on the user's agent: fetch the payload from the shared
// buffer (ReadFresh: the NIC's DMA is not in our cache), call the app,
// and send the buffer back for reposting — also when the read failed,
// so the RX ring keeps its depth. Returns the advanced time cursor.
func (v *VirtualNIC) deliverRx(cur sim.Time, desc descriptor) sim.Time {
	if cap(v.rxBuf) < int(desc.len) {
		v.rxBuf = make([]byte, desc.len)
	}
	payload := v.rxBuf[:desc.len]
	d, err := v.user.cache.ReadStream(cur, desc.addr, payload)
	cur += d
	if err != nil {
		v.compDrops++
	} else {
		v.delivered++
		if desc.stamp > 0 {
			v.E2ELatency.Record(float64(cur - desc.stamp))
		}
		if v.onRecv != nil {
			v.onRecv(cur, desc.name, payload)
		}
	}
	// Recycle the RX buffer through the owner.
	enc, _ := descriptor{kind: descRepost, addr: desc.addr}.encodeInto(v.descBuf[:])
	if v.txSend != nil {
		sd, err := v.txSend.Send(cur, enc)
		cur += sd
		if err != nil {
			v.compDrops++
		}
	}
	return cur
}
