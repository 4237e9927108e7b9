package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cxlpool/internal/bufpool"
	"cxlpool/internal/sim"
)

// Flow implements the §5 "better host load balancing" extension: a
// connection-like ordered byte stream whose egress device can be
// migrated between pooled NICs mid-stream, with no packet loss or
// reordering visible to the application. The paper notes that classic
// TCP migration needs programmable switches or middleboxes; with
// virtual NICs the transformation happens in the pool's software
// datapath instead.
//
// Mechanism: every segment carries (flowID, seq) in a small header.
// The receiver delivers segments in sequence order through a reorder
// buffer, so even segments racing each other on two different physical
// NICs during a migration window arrive at the application in order.

// flowHeaderSize is flowID(8) + seq(8) + length(4).
const flowHeaderSize = 20

// ErrFlowReorderOverflow reports a reorder buffer past its bound —
// either extreme reordering or a lost segment.
var ErrFlowReorderOverflow = errors.New("core: flow reorder buffer overflow (segment lost?)")

// FlowSender is the sending half of a migratable stream.
type FlowSender struct {
	id   uint64
	dst  string
	vnic *VirtualNIC
	seq  uint64

	// segBuf is the segment staging scratch: header + data are
	// assembled here and consumed synchronously by vnic.Send (which
	// NT-stores the bytes into the shared TX buffer).
	segBuf []byte

	migrations uint64
}

// NewFlowSender opens a stream with the given flow id toward a fabric
// destination, initially egressing through vnic.
func NewFlowSender(id uint64, vnic *VirtualNIC, dst string) *FlowSender {
	return &FlowSender{id: id, dst: dst, vnic: vnic}
}

// Send transmits one segment of the stream.
func (f *FlowSender) Send(now sim.Time, data []byte) (sim.Duration, error) {
	if cap(f.segBuf) < flowHeaderSize+len(data) {
		f.segBuf = make([]byte, flowHeaderSize+len(data))
	}
	buf := f.segBuf[:flowHeaderSize+len(data)]
	binary.LittleEndian.PutUint64(buf[0:8], f.id)
	binary.LittleEndian.PutUint64(buf[8:16], f.seq)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(data)))
	copy(buf[flowHeaderSize:], data)
	d, err := f.vnic.Send(now, f.dst, buf)
	if err != nil {
		return d, err
	}
	f.seq++
	return d, nil
}

// Migrate switches the stream's egress to another virtual NIC. The
// stream continues with the same sequence space; the receiver's reorder
// buffer absorbs any cross-path races. The new vNIC may be bound to a
// different physical NIC on a different host — that is the point.
func (f *FlowSender) Migrate(to *VirtualNIC) error {
	if to == nil {
		return errors.New("core: migrate to nil vNIC")
	}
	f.vnic = to
	f.migrations++
	return nil
}

// FlowReceiver reassembles one flow's segments into in-order delivery.
//
// Delivered segment bytes are owned by the receiver only for the
// duration of the deliver callback: in-order segments alias the
// caller's payload and out-of-order segments live in pooled buffers
// recycled after delivery. Callbacks that retain data must copy it.
type FlowReceiver struct {
	id       uint64
	next     uint64
	buffered map[uint64][]byte
	maxHold  int
	// segPool recycles the copies made for out-of-order segments.
	segPool bufpool.Pool

	deliver func(now sim.Time, data []byte)

	delivered  uint64
	reordered  uint64
	duplicates uint64
}

// NewFlowReceiver creates a receiver for flow id delivering in-order
// segments to deliver. maxHold bounds the reorder buffer (default 256).
func NewFlowReceiver(id uint64, maxHold int, deliver func(now sim.Time, data []byte)) *FlowReceiver {
	if maxHold <= 0 {
		maxHold = 256
	}
	return &FlowReceiver{
		id:       id,
		buffered: make(map[uint64][]byte),
		maxHold:  maxHold,
		deliver:  deliver,
	}
}

// Stats returns (delivered, reordered, duplicates).
func (r *FlowReceiver) Stats() (delivered, reordered, duplicates uint64) {
	return r.delivered, r.reordered, r.duplicates
}

// Attach registers this receiver as the OnReceive handler of a virtual
// NIC, filtering for its flow id. Non-flow traffic and other flows are
// ignored (a real stack would demultiplex; one flow suffices here).
func (r *FlowReceiver) Attach(v *VirtualNIC) {
	v.OnReceive(func(now sim.Time, _ string, payload []byte) {
		_ = r.Ingest(now, payload)
	})
}

// Ingest processes one raw segment. Returns an error only for malformed
// or overflow conditions; unknown flows are silently skipped.
func (r *FlowReceiver) Ingest(now sim.Time, payload []byte) error {
	if len(payload) < flowHeaderSize {
		return fmt.Errorf("core: short flow segment (%d bytes)", len(payload))
	}
	id := binary.LittleEndian.Uint64(payload[0:8])
	if id != r.id {
		return nil
	}
	seq := binary.LittleEndian.Uint64(payload[8:16])
	n := int(binary.LittleEndian.Uint32(payload[16:20]))
	if flowHeaderSize+n > len(payload) {
		return fmt.Errorf("core: flow segment length %d exceeds payload", n)
	}
	data := payload[flowHeaderSize : flowHeaderSize+n]
	switch {
	case seq == r.next:
		// In-order fast path: deliver straight from the caller's
		// payload. The deliver callback owns the bytes only for the
		// duration of the call (payload is typically vNIC RX scratch).
		r.deliverOne(now, data)
		// Drain any buffered successors, recycling their held copies.
		for {
			d, ok := r.buffered[r.next]
			if !ok {
				break
			}
			delete(r.buffered, r.next)
			r.deliverOne(now, d)
			r.segPool.Put(d)
		}
	case seq < r.next:
		r.duplicates++
	default:
		if _, dup := r.buffered[seq]; dup {
			r.duplicates++
			return nil
		}
		if len(r.buffered) >= r.maxHold {
			return fmt.Errorf("%w: holding %d, next=%d got=%d",
				ErrFlowReorderOverflow, len(r.buffered), r.next, seq)
		}
		// Out-of-order segments outlive this call, so they are copied
		// into pooled storage, recycled when delivered in order.
		held := r.segPool.Get(n)
		copy(held, data)
		r.buffered[seq] = held
		r.reordered++
	}
	return nil
}

func (r *FlowReceiver) deliverOne(now sim.Time, data []byte) {
	r.delivered++
	r.next++
	if r.deliver != nil {
		r.deliver(now, data)
	}
}
