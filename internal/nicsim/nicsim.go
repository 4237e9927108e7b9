// Package nicsim models a 100 Gbps-class NIC: descriptor rings, DMA into
// host (or CXL pool) memory, wire serialization, and failure injection.
//
// The NIC is deliberately buffer-placement-agnostic: TX and RX buffer
// addresses are whatever the stack posted, and DMA goes through the
// host-memory view the endpoint was attached to. Pointing that view at a
// CXL pool window instead of local DDR is the entire mechanical content
// of the paper's Figure 3 modification ("allocate TX and RX buffers —
// not the TX/RX queues — from the CXL memory pool").
package nicsim

import (
	"errors"
	"fmt"
	"slices"

	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/pcie"
	"cxlpool/internal/sim"
)

// LineRate100G is 100 Gbps in GB/s.
const LineRate100G mem.GBps = 12.5

// Errors.
var (
	ErrNoRxBuffer = errors.New("nicsim: RX ring empty (packet dropped)")
	ErrTooLong    = errors.New("nicsim: payload exceeds MTU")
	ErrNotWired   = errors.New("nicsim: NIC not attached to a fabric")
)

// MTU is the jumbo-frame MTU, admitting the paper's 9000 B payloads.
const MTU = 9216

// RxCompletion describes a received packet after DMA into a host
// buffer. It carries the frame metadata by value (not a *netsim.Packet)
// so the fabric can recycle the wire frame the moment delivery
// completes: completions may be captured in closures and consumed long
// after the underlying packet buffer has been reused. The payload bytes
// live in the posted host buffer at Addr.
type RxCompletion struct {
	Addr mem.Address
	Len  int
	// Src is the sending NIC's fabric address.
	Src string
	// Stamp is the sender's send-initiation time (RTT measurement).
	Stamp sim.Time
	// Seq is the sender-assigned sequence number.
	Seq uint64
}

// Config sizes a NIC.
type Config struct {
	// LineRate is the port speed (default 100 Gbps).
	LineRate mem.GBps
	// RxRingDepth bounds posted RX buffers (default 1024).
	RxRingDepth int
}

// NIC is one simulated network interface.
type NIC struct {
	name   string
	ep     *pcie.Endpoint
	fabric *netsim.Fabric
	rate   mem.GBps

	txBusy sim.Time
	seq    uint64

	// rxRing is a head-indexed queue: PostRxBuffer appends, FromWire
	// consumes at rxHead, and the slice is reset (capacity kept) when it
	// drains, so steady-state post/consume traffic reuses one backing
	// array instead of reallocating as the window drifts.
	rxRing    []rxDesc
	rxHead    int
	ringDepth int

	onRx func(now sim.Time, c RxCompletion)

	// Stats.
	txPackets, rxPackets uint64
	txBytes, rxBytes     uint64
	rxDrops              uint64
}

type rxDesc struct {
	addr mem.Address
	size int
}

// New creates a NIC with the given name (also its fabric address).
func New(name string, cfg Config) *NIC {
	if cfg.LineRate <= 0 {
		cfg.LineRate = LineRate100G
	}
	if cfg.RxRingDepth <= 0 {
		cfg.RxRingDepth = 1024
	}
	n := &NIC{
		name:      name,
		ep:        pcie.NewEndpoint(name, pcie.LinkConfig{Lanes: 16, Gen: 4}), // carries 100 Gbps
		rate:      cfg.LineRate,
		ringDepth: cfg.RxRingDepth,
	}
	return n
}

// Name returns the NIC's name/address.
func (n *NIC) Name() string { return n.name }

// Endpoint exposes the PCIe function (for host-memory attachment and
// failure injection).
func (n *NIC) Endpoint() *pcie.Endpoint { return n.ep }

// LineRate returns the port speed.
func (n *NIC) LineRate() mem.GBps { return n.rate }

// AttachFabric wires the NIC to a switch fabric; the caller must also
// fabric.Attach(n.Name(), n.LineRate(), n).
func (n *NIC) AttachFabric(f *netsim.Fabric) { n.fabric = f }

// AttachHostMemory points DMA at the host's buffer memory (local DDR or
// a CXL pool window).
func (n *NIC) AttachHostMemory(m mem.Memory) { n.ep.AttachHostMemory(m) }

// OnReceive installs the stack's RX completion callback.
func (n *NIC) OnReceive(fn func(now sim.Time, c RxCompletion)) { n.onRx = fn }

// Fail injects a NIC failure (link down): TX errors, RX drops.
func (n *NIC) Fail() { n.ep.Fail() }

// Repair restores the NIC.
func (n *NIC) Repair() { n.ep.Repair() }

// Failed reports failure state.
func (n *NIC) Failed() bool { return n.ep.Failed() }

// UnpostRx removes any pending RX descriptors whose buffer address is
// in addrs, returning how many were removed. Virtual NICs unpost their
// buffers when a binding is torn down: the addresses return to the
// shared segment, and a descriptor left behind would both strand ring
// depth and let the NIC DMA a future packet into memory that may since
// belong to another tenant.
func (n *NIC) UnpostRx(addrs []mem.Address) int {
	if len(addrs) == 0 || n.rxHead >= len(n.rxRing) {
		return 0
	}
	drop := make(map[mem.Address]bool, len(addrs))
	for _, a := range addrs {
		drop[a] = true
	}
	kept := n.rxRing[:n.rxHead]
	removed := 0
	for _, d := range n.rxRing[n.rxHead:] {
		if drop[d.addr] {
			removed++
			continue
		}
		kept = append(kept, d)
	}
	n.rxRing = kept
	return removed
}

// PostRxBuffer gives the NIC a host buffer for a future inbound packet.
func (n *NIC) PostRxBuffer(addr mem.Address, size int) error {
	if len(n.rxRing)-n.rxHead >= n.ringDepth {
		return fmt.Errorf("nicsim %s: RX ring full (%d)", n.name, n.ringDepth)
	}
	if n.rxHead == len(n.rxRing) {
		// Drained: rewind to reuse the backing array.
		n.rxRing = n.rxRing[:0]
		n.rxHead = 0
	} else if n.rxHead >= n.ringDepth {
		// Compact so the array never grows past 2x the ring depth.
		m := copy(n.rxRing, n.rxRing[n.rxHead:])
		n.rxRing = n.rxRing[:m]
		n.rxHead = 0
	}
	n.rxRing = append(n.rxRing, rxDesc{addr: addr, size: size})
	return nil
}

// PostRxBuffers posts addrs in order, each as PostRxBuffer would, with
// the ring grown once for the whole batch. It stops at the first error;
// the buffers before it stay posted.
func (n *NIC) PostRxBuffers(addrs []mem.Address, size int) error {
	if room := n.ringDepth - n.RxRingLen(); room > 0 {
		n.rxRing = slices.Grow(n.rxRing, min(len(addrs), room))
	}
	for _, a := range addrs {
		if err := n.PostRxBuffer(a, size); err != nil {
			return err
		}
	}
	return nil
}

// dropRx drops a frame whose descriptor was consumed but never
// completed (frame too large, DMA failed) and reposts the descriptor,
// as a driver reposts a buffer whose completion carried an error. The
// descriptor was just consumed, so the ring has room for it.
func (n *NIC) dropRx(desc rxDesc) {
	n.rxDrops++
	_ = n.PostRxBuffer(desc.addr, desc.size)
}

// RxRingLen returns the number of posted RX buffers.
func (n *NIC) RxRingLen() int { return len(n.rxRing) - n.rxHead }

// Stats returns packet/byte/drop counters.
func (n *NIC) Stats() (txPackets, rxPackets, txBytes, rxBytes, rxDrops uint64) {
	return n.txPackets, n.rxPackets, n.txBytes, n.rxBytes, n.rxDrops
}

// TxBytes returns bytes transmitted (for utilization monitoring).
func (n *NIC) TxBytes() uint64 { return n.txBytes }

// Transmit sends length bytes from the host buffer at addr to dst. The
// returned duration is the time until the frame has left the NIC (DMA
// fetch + wire serialization); delivery at the destination is scheduled
// on the fabric's engine. stamp rides along for RTT measurement.
func (n *NIC) Transmit(now sim.Time, addr mem.Address, length int, dst string, stamp sim.Time) (sim.Duration, error) {
	if n.fabric == nil {
		return 0, ErrNotWired
	}
	if length > MTU {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLong, length, MTU)
	}
	// Fetch the payload from host memory into a fabric-recycled frame.
	// This is where TX buffers in CXL cost more than DDR — and where
	// that cost is visible to the experiment.
	n.seq++
	pkt := n.fabric.NewPacket(n.name, dst, length, stamp, n.seq)
	d, err := n.ep.DMARead(now, addr, pkt.Payload)
	if err != nil {
		n.fabric.Release(pkt)
		n.seq--
		return 0, err
	}
	// Serialize onto the wire at line rate.
	start := now + d
	if n.txBusy > start {
		start = n.txBusy
	}
	xfer := n.rate.TransferTime(netsim.WireBytes(length))
	n.txBusy = start + xfer
	leave := start + xfer
	if err := n.fabric.Inject(leave, pkt); err != nil {
		n.fabric.Release(pkt)
		return 0, err
	}
	n.txPackets++
	n.txBytes += uint64(length)
	return leave - now, nil
}

// FromWire implements netsim.Receiver: an inbound frame consumes an RX
// descriptor, is DMA-written into the posted buffer, and the stack is
// notified at DMA completion.
func (n *NIC) FromWire(now sim.Time, p *netsim.Packet) {
	if n.ep.Failed() {
		n.rxDrops++
		return
	}
	if n.rxHead == len(n.rxRing) {
		n.rxDrops++
		return
	}
	desc := n.rxRing[n.rxHead]
	n.rxHead++
	if len(p.Payload) > desc.size {
		n.dropRx(desc)
		return
	}
	d, err := n.ep.DMAWrite(now, desc.addr, p.Payload)
	if err != nil {
		n.dropRx(desc)
		return
	}
	n.rxPackets++
	n.rxBytes += uint64(len(p.Payload))
	if n.onRx != nil {
		// The completion is observed by the stack after the DMA has
		// landed. The fabric's engine ordering already placed `now`
		// correctly; DMA latency is forwarded to the callback. The
		// completion copies the frame metadata because the fabric
		// recycles the packet as soon as FromWire returns.
		n.onRx(now+d, RxCompletion{Addr: desc.addr, Len: len(p.Payload), Src: p.Src, Stamp: p.Stamp, Seq: p.Seq})
	}
}
