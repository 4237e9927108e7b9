// Package netsim models the Ethernet fabric between simulated NICs: a
// top-of-rack (ToR) switch with per-port egress queues, wire
// propagation, and failure injection.
//
// It stands in for the "common 100 Gbps switch" of the paper's Figure 3
// testbed and provides the ToR/dual-ToR/aggregation failure models the
// §5 "datacenter networks without ToRs" discussion needs.
package netsim

import (
	"errors"
	"fmt"

	"cxlpool/internal/bufpool"
	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Frame overheads on the wire.
const (
	// HeaderBytes is Ethernet+IP+UDP header bytes per packet.
	HeaderBytes = 42
	// FramingBytes is preamble + FCS + inter-frame gap.
	FramingBytes = 24
)

// WireBytes returns the on-wire size for a payload.
func WireBytes(payload int) int { return payload + HeaderBytes + FramingBytes }

// Default fabric timing.
const (
	// DefaultPropagation is one hop of cable + PHY latency.
	DefaultPropagation sim.Duration = 450
	// DefaultForwardLatency is the switch's cut-through forwarding time.
	DefaultForwardLatency sim.Duration = 600
)

// Packet is one frame in flight. Payload is carried by value so data
// integrity is testable end to end.
//
// Packets obtained from Fabric.NewPacket are recycled after delivery:
// the struct and its Payload are valid until the receiver's FromWire
// returns, after which the fabric may reuse both for later traffic.
// Receivers that need bytes past delivery must copy them (the NIC model
// does: it DMA-writes the payload into a posted host buffer before
// completing). Externally constructed packets are never recycled.
type Packet struct {
	Src, Dst string
	Payload  []byte
	// Stamp is the sender's send-initiation time, used by clients to
	// compute RTT.
	Stamp sim.Time
	// Seq is a sender-assigned sequence number.
	Seq uint64
	// pooled marks fabric-owned packets for recycling after delivery.
	pooled bool
}

// Receiver is anything that can accept frames from the fabric (a NIC).
type Receiver interface {
	FromWire(now sim.Time, p *Packet)
}

// Errors.
var (
	ErrUnknownPort = errors.New("netsim: unknown port")
)

type port struct {
	name string
	rx   Receiver
	// egressBusy is the switch-side egress serialization point toward
	// this port.
	egressBusy sim.Time
	// rate is the port line rate.
	rate mem.GBps
	// queued counts frames waiting on this egress right now; used for a
	// crude tail-drop model.
	queueLimit int
	drops      uint64
	forwarded  uint64
}

// Fabric is a single-switch star topology (one ToR).
type Fabric struct {
	name    string
	engine  *sim.Engine
	ports   map[string]*port
	propag  sim.Duration
	forward sim.Duration
	down    bool

	// MaxQueueDelay bounds egress queueing; frames that would wait
	// longer are tail-dropped (switch buffer limit). Zero disables.
	MaxQueueDelay sim.Duration

	// payloads and pktFree recycle fabric-owned frames (see NewPacket):
	// steady-state traffic reuses one packet struct and one payload
	// buffer per concurrent in-flight frame instead of allocating per
	// send.
	payloads bufpool.Pool
	pktFree  []*Packet
	// delFree recycles delivery events. Each carries a closure built
	// once at struct creation, so scheduling a delivery does not
	// allocate a fresh closure per frame.
	delFree []*delivery
}

// delivery is one scheduled frame arrival, pooled with its callback.
type delivery struct {
	f       *Fabric
	dst     *port
	p       *Packet
	arrival sim.Time
	fn      func()
}

// newDelivery pops a recycled delivery or builds one (with its
// permanent callback closure).
func (f *Fabric) newDelivery(dst *port, p *Packet, arrival sim.Time) *delivery {
	var d *delivery
	if k := len(f.delFree); k > 0 {
		d = f.delFree[k-1]
		f.delFree[k-1] = nil
		f.delFree = f.delFree[:k-1]
	} else {
		d = &delivery{f: f}
		d.fn = d.run
	}
	d.dst, d.p, d.arrival = dst, p, arrival
	return d
}

// run fires the delivery: the struct is recycled before the receiver
// callback so reentrant sends can reuse it.
func (d *delivery) run() {
	f, dst, p, arrival := d.f, d.dst, d.p, d.arrival
	d.dst, d.p = nil, nil
	f.delFree = append(f.delFree, d)
	if f.down {
		dst.drops++
		f.Release(p)
		return
	}
	dst.rx.FromWire(arrival, p)
	f.Release(p)
}

// NewFabric creates a fabric driven by the given engine.
func NewFabric(name string, engine *sim.Engine) *Fabric {
	return &Fabric{
		name:    name,
		engine:  engine,
		ports:   make(map[string]*port),
		propag:  DefaultPropagation,
		forward: DefaultForwardLatency,
	}
}

// Attach connects a receiver at the given port name and line rate.
func (f *Fabric) Attach(name string, rate mem.GBps, rx Receiver) error {
	if _, ok := f.ports[name]; ok {
		return fmt.Errorf("netsim: port %q already attached to %s", name, f.name)
	}
	if rate <= 0 {
		return fmt.Errorf("netsim: port %q with non-positive rate", name)
	}
	f.ports[name] = &port{name: name, rx: rx, rate: rate}
	return nil
}

// Fail takes the whole switch down: all in-flight and future frames are
// dropped (ToR failure, §5).
func (f *Fabric) Fail() { f.down = true }

// Repair restores the switch.
func (f *Fabric) Repair() { f.down = false }

// NewPacket returns a fabric-owned frame with a Payload of n bytes,
// recycled from earlier delivered traffic when possible. Ownership
// transfers to the fabric on a successful Inject; the fabric reclaims
// the packet once the receiver's FromWire returns (or on a drop). A
// sender whose Inject fails must hand the packet back with Release.
func (f *Fabric) NewPacket(src, dst string, n int, stamp sim.Time, seq uint64) *Packet {
	var p *Packet
	if k := len(f.pktFree); k > 0 {
		p = f.pktFree[k-1]
		f.pktFree[k-1] = nil
		f.pktFree = f.pktFree[:k-1]
	} else {
		p = &Packet{}
	}
	*p = Packet{Src: src, Dst: dst, Payload: f.payloads.Get(n), Stamp: stamp, Seq: seq, pooled: true}
	return p
}

// Release returns a fabric-owned packet to the free lists. Packets not
// created by NewPacket are ignored.
func (f *Fabric) Release(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	p.pooled = false
	f.payloads.Put(p.Payload)
	p.Payload = nil
	f.pktFree = append(f.pktFree, p)
}

// Inject puts a frame on the wire at time now (the sender NIC has
// already serialized it onto its own uplink). The fabric forwards it and
// schedules delivery at the destination. Returns an error for unknown
// destinations; drops (fabric down, queue overflow) are silent data-path
// behavior, counted in stats. On success the fabric owns fabric-created
// packets and recycles them after delivery or drop; on error the caller
// keeps ownership.
func (f *Fabric) Inject(now sim.Time, p *Packet) error {
	dst, ok := f.ports[p.Dst]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPort, p.Dst)
	}
	if f.down {
		dst.drops++
		f.Release(p)
		return nil
	}
	// Uplink propagation + cut-through forwarding.
	atSwitch := now + f.propag + f.forward
	// Egress serialization toward dst (the congestion point of a star
	// topology).
	start := atSwitch
	if dst.egressBusy > start {
		if f.MaxQueueDelay > 0 && dst.egressBusy-start > f.MaxQueueDelay {
			dst.drops++
			f.Release(p)
			return nil
		}
		start = dst.egressBusy
	}
	xfer := dst.rate.TransferTime(WireBytes(len(p.Payload)))
	dst.egressBusy = start + xfer
	arrival := start + xfer + f.propag
	dst.forwarded++
	f.engine.At(arrival, f.newDelivery(dst, p, arrival).fn)
	return nil
}
