// Package nvmeof implements NVMe-over-Fabrics-style remote storage —
// the incumbent disaggregation approach the paper argues CXL pooling
// should complement and, for latency-sensitive local-SSD replacement,
// beat (§1: "in practice, RDMA latency is too high; all cloud
// providers still offer host-local SSDs in addition to remote SSDs").
//
// A Target exports an SSD over the Ethernet fabric; an Initiator on
// another host issues reads and writes as request/response packets.
// Every I/O pays two network traversals (NIC DMA, wire, switch, stack)
// on top of the media latency — the cost CXL-pooled storage avoids by
// keeping the data path inside the rack's memory fabric.
package nvmeof

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

// Protocol constants.
const (
	opRead  uint8 = 1
	opWrite uint8 = 2
	opData  uint8 = 3 // response carrying data (read) or ack (write)
	opError uint8 = 4

	headerSize = 32 // op(1) pad(3) len(4) lba(8) id(8) stamp(8)
)

// TargetProcessing is the target-side software overhead per command
// (NVMe-oF target stack, queue-pair handling).
const TargetProcessing sim.Duration = 3 * sim.Microsecond

// Errors.
var (
	ErrTooLarge = errors.New("nvmeof: I/O exceeds one fabric frame")
	ErrNoSlot   = errors.New("nvmeof: too many outstanding commands")
)

// encodeHeaderInto packs a command/response header into buf, which must
// hold at least headerSize bytes.
func encodeHeaderInto(buf []byte, op uint8, n uint32, lba int64, id uint64, stamp sim.Time) {
	buf[0] = op
	buf[1], buf[2], buf[3] = 0, 0, 0
	binary.LittleEndian.PutUint32(buf[4:8], n)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(lba))
	binary.LittleEndian.PutUint64(buf[16:24], id)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(stamp))
}

type header struct {
	op    uint8
	n     uint32
	lba   int64
	id    uint64
	stamp sim.Time
}

func decodeHeader(buf []byte) (header, error) {
	if len(buf) < headerSize {
		return header{}, fmt.Errorf("nvmeof: short header (%d)", len(buf))
	}
	return header{
		op:    buf[0],
		n:     binary.LittleEndian.Uint32(buf[4:8]),
		lba:   int64(binary.LittleEndian.Uint64(buf[8:16])),
		id:    binary.LittleEndian.Uint64(buf[16:24]),
		stamp: sim.Time(binary.LittleEndian.Uint64(buf[24:32])),
	}, nil
}

// Target exports one SSD over the fabric.
type Target struct {
	engine *sim.Engine
	nic    *nicsim.NIC
	ssd    *ssdsim.SSD
	// staging is the target's DDR bounce-buffer region.
	staging *mem.Region
	alloc   *mem.Allocator

	// Per-target scratch, reused across commands: frameBuf stages
	// inbound command frames, respBuf outbound response frames, dataBuf
	// SSD read payloads. Command handling is strictly sequential on the
	// engine, so one of each suffices (zero steady-state allocation).
	frameBuf []byte
	respBuf  []byte
	dataBuf  []byte
	// ioFree recycles in-flight command contexts with their SSD
	// completion callbacks, so serving a command does not allocate a
	// fresh closure per I/O.
	ioFree []*tgtIO

	served uint64
	errors uint64
}

// tgtIO is one in-flight command on the target, pooled with its
// completion callback.
type tgtIO struct {
	t        *Target
	src      string
	h        header
	dataAddr mem.Address
	cb       func(ssdsim.Completion)
}

// getIO pops a recycled command context (building its permanent
// callback on first use).
func (t *Target) getIO(src string, h header, dataAddr mem.Address) *tgtIO {
	var io *tgtIO
	if k := len(t.ioFree); k > 0 {
		io = t.ioFree[k-1]
		t.ioFree[k-1] = nil
		t.ioFree = t.ioFree[:k-1]
	} else {
		io = &tgtIO{t: t}
		io.cb = io.complete
	}
	io.src, io.h, io.dataAddr = src, h, dataAddr
	return io
}

// complete finishes a command when the SSD completion fires: recycle
// the context first (copying its fields), then respond.
func (io *tgtIO) complete(comp ssdsim.Completion) {
	t, src, h, dataAddr := io.t, io.src, io.h, io.dataAddr
	io.src = ""
	t.ioFree = append(t.ioFree, io)
	now := t.engine.Now()
	switch h.op {
	case opWrite:
		_ = t.alloc.Free(dataAddr)
		t.respond(now, src, h, nil)
	case opRead:
		if cap(t.dataBuf) < int(h.n) {
			t.dataBuf = make([]byte, h.n)
		}
		data := t.dataBuf[:h.n]
		if _, err := t.staging.ReadAt(now, dataAddr, data); err != nil {
			_ = t.alloc.Free(dataAddr)
			t.respondErr(now, src, h)
			return
		}
		_ = t.alloc.Free(dataAddr)
		t.respond(now, src, h, data)
	}
}

// NewTarget wires a target: inbound command frames drive the SSD;
// completions send response frames back to the initiator. The NIC and
// SSD must share the staging memory (both are attached here).
func NewTarget(engine *sim.Engine, nic *nicsim.NIC, ssd *ssdsim.SSD, staging *mem.Region, ringDepth int) (*Target, error) {
	if ringDepth <= 0 {
		ringDepth = 256
	}
	t := &Target{
		engine:  engine,
		nic:     nic,
		ssd:     ssd,
		staging: staging,
		alloc:   mem.NewAllocator(staging.Base(), staging.Size()),
	}
	nic.AttachHostMemory(staging)
	ssd.AttachHostMemory(staging)
	for i := 0; i < ringDepth; i++ {
		a, err := t.alloc.Alloc(nicsim.MTU)
		if err != nil {
			return nil, err
		}
		if err := nic.PostRxBuffer(a, nicsim.MTU); err != nil {
			return nil, err
		}
	}
	nic.OnReceive(t.onCommand)
	return t, nil
}

// onCommand handles one inbound command frame.
func (t *Target) onCommand(now sim.Time, c nicsim.RxCompletion) {
	// Parse the frame from staging memory: the header rode in the
	// packet payload which the NIC DMA-wrote at c.Addr.
	if cap(t.frameBuf) < c.Len {
		t.frameBuf = make([]byte, c.Len)
	}
	frame := t.frameBuf[:c.Len]
	if _, err := t.staging.ReadAt(now, c.Addr, frame); err != nil {
		t.errors++
		return
	}
	h, err := decodeHeader(frame)
	if err != nil {
		t.errors++
		return
	}
	src := c.Src
	start := now + TargetProcessing
	switch h.op {
	case opWrite:
		// Payload follows the header in the frame; stage it for the SSD.
		dataAddr, err := t.alloc.Alloc(int(h.n))
		if err != nil {
			t.respondErr(start, src, h)
			break
		}
		if _, err := t.staging.WriteAt(start, dataAddr, frame[headerSize:headerSize+int(h.n)]); err != nil {
			t.respondErr(start, src, h)
			break
		}
		io := t.getIO(src, h, dataAddr)
		if err := t.ssd.Submit(start, ssdsim.OpWrite, h.lba, int(h.n), dataAddr, io.cb); err != nil {
			t.ioFree = append(t.ioFree, io)
			_ = t.alloc.Free(dataAddr)
			t.respondErr(start, src, h)
		}
	case opRead:
		dataAddr, err := t.alloc.Alloc(int(h.n))
		if err != nil {
			t.respondErr(start, src, h)
			break
		}
		io := t.getIO(src, h, dataAddr)
		if err := t.ssd.Submit(start, ssdsim.OpRead, h.lba, int(h.n), dataAddr, io.cb); err != nil {
			t.ioFree = append(t.ioFree, io)
			_ = t.alloc.Free(dataAddr)
			t.respondErr(start, src, h)
		}
	default:
		t.errors++
	}
	// Repost the command buffer.
	_ = t.nic.PostRxBuffer(c.Addr, nicsim.MTU)
}

// respond sends a completion frame (with data for reads), assembled in
// the target's reusable response scratch.
func (t *Target) respond(now sim.Time, dst string, h header, data []byte) {
	total := headerSize + len(data)
	if cap(t.respBuf) < total {
		t.respBuf = make([]byte, total)
	}
	frame := t.respBuf[:total]
	encodeHeaderInto(frame, opData, h.n, h.lba, h.id, h.stamp)
	copy(frame[headerSize:], data)
	addr, err := t.alloc.Alloc(len(frame))
	if err != nil {
		t.errors++
		return
	}
	wd, err := t.staging.WriteAt(now, addr, frame)
	if err != nil {
		t.errors++
		return
	}
	if _, err := t.nic.Transmit(now+wd, addr, len(frame), dst, h.stamp); err != nil {
		t.errors++
	}
	_ = t.alloc.Free(addr)
	t.served++
}

func (t *Target) respondErr(now sim.Time, dst string, h header) {
	t.errors++
	if cap(t.respBuf) < headerSize {
		t.respBuf = make([]byte, headerSize)
	}
	frame := t.respBuf[:headerSize]
	encodeHeaderInto(frame, opError, 0, h.lba, h.id, h.stamp)
	addr, err := t.alloc.Alloc(len(frame))
	if err != nil {
		return
	}
	wd, err := t.staging.WriteAt(now, addr, frame)
	if err == nil {
		_, _ = t.nic.Transmit(now+wd, addr, len(frame), dst, h.stamp)
	}
	_ = t.alloc.Free(addr)
}

// Initiator issues remote I/O from another host.
type Initiator struct {
	engine  *sim.Engine
	nic     *nicsim.NIC
	staging *mem.Region
	alloc   *mem.Allocator
	target  string

	nextID  uint64
	pending map[uint64]*pendingIO

	// Per-connection scratch (see Target): txBuf stages outbound command
	// frames, rxBuf inbound response frames, dataBuf the read payloads
	// handed to completion callbacks.
	txBuf   []byte
	rxBuf   []byte
	dataBuf []byte
	// ioFree recycles pendingIO contexts across commands.
	ioFree []*pendingIO

	completed uint64
	ioErrors  uint64
}

type pendingIO struct {
	start  sim.Time
	onDone func(now sim.Time, data []byte, err error)
}

// NewInitiator wires an initiator toward the named target NIC.
func NewInitiator(engine *sim.Engine, nic *nicsim.NIC, staging *mem.Region, target string, ringDepth int) (*Initiator, error) {
	if ringDepth <= 0 {
		ringDepth = 256
	}
	ini := &Initiator{
		engine:  engine,
		nic:     nic,
		staging: staging,
		alloc:   mem.NewAllocator(staging.Base(), staging.Size()),
		target:  target,
		pending: make(map[uint64]*pendingIO),
	}
	nic.AttachHostMemory(staging)
	for i := 0; i < ringDepth; i++ {
		a, err := ini.alloc.Alloc(nicsim.MTU)
		if err != nil {
			return nil, err
		}
		if err := nic.PostRxBuffer(a, nicsim.MTU); err != nil {
			return nil, err
		}
	}
	nic.OnReceive(ini.onResponse)
	return ini, nil
}

// Read issues a remote read.
func (ini *Initiator) Read(now sim.Time, lba int64, n int, onDone func(sim.Time, []byte, error)) error {
	return ini.submit(now, opRead, lba, nil, n, onDone)
}

func (ini *Initiator) submit(now sim.Time, op uint8, lba int64, data []byte, n int, onDone func(sim.Time, []byte, error)) error {
	if headerSize+n > nicsim.MTU {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	ini.nextID++
	id := ini.nextID
	total := headerSize
	if op == opWrite {
		total += len(data)
	}
	if cap(ini.txBuf) < total {
		ini.txBuf = make([]byte, total)
	}
	frame := ini.txBuf[:total]
	encodeHeaderInto(frame, op, uint32(n), lba, id, now)
	if op == opWrite {
		copy(frame[headerSize:], data)
	}
	addr, err := ini.alloc.Alloc(len(frame))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoSlot, err)
	}
	wd, err := ini.staging.WriteAt(now, addr, frame)
	if err != nil {
		_ = ini.alloc.Free(addr)
		return err
	}
	var p *pendingIO
	if k := len(ini.ioFree); k > 0 {
		p = ini.ioFree[k-1]
		ini.ioFree[k-1] = nil
		ini.ioFree = ini.ioFree[:k-1]
	} else {
		p = &pendingIO{}
	}
	p.start, p.onDone = now, onDone
	ini.pending[id] = p
	if _, err := ini.nic.Transmit(now+wd, addr, len(frame), ini.target, now); err != nil {
		delete(ini.pending, id)
		p.onDone = nil
		ini.ioFree = append(ini.ioFree, p)
		_ = ini.alloc.Free(addr)
		return err
	}
	_ = ini.alloc.Free(addr)
	return nil
}

// onResponse completes a pending I/O. Read data is handed to the
// pending onDone callback in a per-connection scratch buffer that is
// reused by the next response: callbacks must consume or copy the bytes
// before returning (see README "Buffer ownership & reuse").
func (ini *Initiator) onResponse(now sim.Time, c nicsim.RxCompletion) {
	if cap(ini.rxBuf) < c.Len {
		ini.rxBuf = make([]byte, c.Len)
	}
	frame := ini.rxBuf[:c.Len]
	rd, err := ini.staging.ReadAt(now, c.Addr, frame)
	done := now + rd
	_ = ini.nic.PostRxBuffer(c.Addr, nicsim.MTU)
	if err != nil {
		ini.ioErrors++
		return
	}
	h, err := decodeHeader(frame)
	if err != nil {
		ini.ioErrors++
		return
	}
	p, ok := ini.pending[h.id]
	if !ok {
		return
	}
	delete(ini.pending, h.id)
	onDone := p.onDone
	p.onDone = nil
	ini.ioFree = append(ini.ioFree, p)
	ini.completed++
	var data []byte
	var ioErr error
	switch h.op {
	case opData:
		if h.n > 0 && len(frame) >= headerSize+int(h.n) {
			if cap(ini.dataBuf) < int(h.n) {
				ini.dataBuf = make([]byte, h.n)
			}
			data = ini.dataBuf[:h.n]
			copy(data, frame[headerSize:])
		}
	case opError:
		ioErr = errors.New("nvmeof: remote I/O failed")
		ini.ioErrors++
	}
	if onDone != nil {
		onDone(done, data, ioErr)
	}
}
