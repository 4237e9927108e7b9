package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"cxlpool/internal/mem"
	"cxlpool/internal/metrics"
	"cxlpool/internal/pcie"
	"cxlpool/internal/shm"
	"cxlpool/internal/sim"
)

// Errors of the forwarded devices (VirtualSSD, VirtualAccel).
var (
	ErrNoIOBuffer = errors.New("core: out of I/O buffer slots (too many outstanding)")
	ErrIOTooLarge = errors.New("core: I/O exceeds buffer size")
)

// forwarder is the transport shared by the pooled block-style devices
// (VirtualSSD, VirtualAccel): each operation stages its data in a
// buffer slot in the CXL shared segment, travels to the owner's agent
// as a command descriptor, is started on the physical device there, and
// comes back as a completion descriptor naming the result bytes in the
// same slot. The embedding device supplies the owner-side start step
// and its argument checks; everything else lives here.
type forwarder[P interface{ AttachHostMemory(mem.Memory) }] struct {
	name string
	user *Host

	owner *Host
	phys  P

	cmdSend  *shm.Sender // user→owner commands
	compSend *shm.Sender // owner→user completions
	ownerSvc *service
	userSvc  *service
	chAddrs  []mem.Address // channel footprints (freed on unbind)

	class    fwdClass
	cfgBufs  int
	cfgSlots int
	bufFree  []mem.Address

	// start hands a decoded command to the physical device at cur; the
	// device's completion calls complete with comp, the completion
	// sender captured at start.
	start func(cur sim.Time, d fwdDesc, comp *shm.Sender) error

	nextID  uint64
	pending []fwdPending // outstanding operations in submission order

	// descBuf stages descriptor encodes (consumed synchronously by
	// channel Sends); dataBuf stages result bytes handed to onDone
	// callbacks, valid only during the callback.
	descBuf [fwdDescSize]byte
	dataBuf []byte

	submitted, completed, errs, remaps uint64

	// Latency records user-visible end-to-end operation latency.
	Latency *metrics.Recorder
}

// fwdClass names a device class in the forwarder's errors.
type fwdClass struct {
	label   string // the buffer pool, in bind errors
	failed  error  // a device-side failure
	aborted error  // an operation lost to a rebind
}

type fwdPending struct {
	id     uint64
	buf    mem.Address
	start  sim.Time
	onDone func(now sim.Time, data []byte, err error)
}

// Forwarded descriptor kinds, and the descriptor's wire size.
const (
	fwdCmd      uint8 = 10 // user→owner: start op on slot [addr]
	fwdComp     uint8 = 11 // owner→user: result is [addr, n)
	fwdErr      uint8 = 12 // owner→user: the device failed the op
	fwdDescSize       = 40
)

// fwdDesc layout: kind(1) op(1) pad(2) n(4) arg(8) addr(8) id(8)
// stamp(8). A command carries the device op, its length n, a
// device-specific argument (an SSD's LBA) and the slot address; a
// completion carries the result extent in n and addr.
type fwdDesc struct {
	kind  uint8
	op    uint8
	n     uint32
	arg   int64
	addr  mem.Address
	id    uint64
	stamp sim.Time
}

// encodeInto packs the descriptor into dst (>= fwdDescSize bytes),
// overwriting the full image so dst may be reused scratch.
func (d fwdDesc) encodeInto(dst []byte) []byte {
	buf := dst[:fwdDescSize]
	clear(buf)
	buf[0] = d.kind
	buf[1] = d.op
	binary.LittleEndian.PutUint32(buf[4:8], d.n)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(d.arg))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(d.addr))
	binary.LittleEndian.PutUint64(buf[24:32], d.id)
	binary.LittleEndian.PutUint64(buf[32:40], uint64(d.stamp))
	return buf
}

// decodeFwdDesc unpacks a channel payload; a short payload decodes
// as kind 0, which no handler accepts.
func decodeFwdDesc(buf []byte) fwdDesc {
	if len(buf) < fwdDescSize {
		return fwdDesc{}
	}
	return fwdDesc{
		kind:  buf[0],
		op:    buf[1],
		n:     binary.LittleEndian.Uint32(buf[4:8]),
		arg:   int64(binary.LittleEndian.Uint64(buf[8:16])),
		addr:  mem.Address(binary.LittleEndian.Uint64(buf[16:24])),
		id:    binary.LittleEndian.Uint64(buf[24:32]),
		stamp: sim.Time(binary.LittleEndian.Uint64(buf[32:40])),
	}
}

func newForwarder[P interface{ AttachHostMemory(mem.Memory) }](user *Host, name string, class fwdClass, bufs, slots int) forwarder[P] {
	return forwarder[P]{
		name: name, user: user, class: class, cfgBufs: bufs, cfgSlots: slots,
		Latency: metrics.NewRecorder(4096),
	}
}

// bind tears down the current binding and builds one on owner with
// slot-byte buffers. Operations outstanding on the old binding fail back
// to their callers once the new one stands. On error the partial state
// is reclaimed and the device is left cleanly unbound.
func (f *forwarder[P]) bind(owner *Host, phys P, slot int) (sim.Duration, error) {
	aborted := f.pending
	f.pending = nil
	for _, p := range aborted {
		f.bufFree = append(f.bufFree, p.buf)
	}
	f.unbind()
	err := f.build(owner, phys, slot)
	if err != nil {
		f.unbind()
	}
	now := f.user.pod.Engine.Now()
	for _, p := range aborted {
		f.errs++
		if p.onDone != nil {
			p.onDone(now, nil, f.class.aborted)
		}
	}
	if err != nil {
		return 0, err
	}
	return RemapLatency, nil
}

// build makes the binding; on error the caller reclaims the partial
// state.
func (f *forwarder[P]) build(owner *Host, phys P, slot int) error {
	pod := f.user.pod
	cmdCh, err := pod.NewChannel(f.cfgSlots)
	if err != nil {
		return err
	}
	f.chAddrs = append(f.chAddrs, cmdCh.Base())
	compCh, err := pod.NewChannel(f.cfgSlots)
	if err != nil {
		return err
	}
	f.chAddrs = append(f.chAddrs, compCh.Base())
	f.owner = owner
	f.phys = phys
	// The device's DMA engine reaches the pool through the owner's
	// address space.
	phys.AttachHostMemory(owner.space)
	f.cmdSend = cmdCh.NewSender(f.user.cache)
	f.compSend = compCh.NewSender(owner.cache)
	f.ownerSvc = owner.agent.addService(cmdCh.NewReceiver(owner.cache), f.handleOwner)
	f.userSvc = f.user.agent.addService(compCh.NewReceiver(f.user.cache), f.handleUser)
	for i := 0; i < f.cfgBufs; i++ {
		a, err := pod.SharedAlloc(slot)
		if err != nil {
			return fmt.Errorf("core: %s buffer pool: %w", f.class.label, err)
		}
		f.bufFree = append(f.bufFree, a)
	}
	return nil
}

// unbind deactivates both services and returns the free buffer slots
// and the channel footprints to the shared segment. A completion still
// in flight from the old device is dropped by complete.
func (f *forwarder[P]) unbind() {
	if f.ownerSvc != nil {
		f.ownerSvc.active = false
		f.ownerSvc = nil
	}
	if f.userSvc != nil {
		f.userSvc.active = false
		f.userSvc = nil
	}
	pod := f.user.pod
	for _, a := range f.bufFree {
		_ = pod.SharedFree(a)
	}
	f.bufFree = f.bufFree[:0]
	for _, a := range f.chAddrs {
		_ = pod.SharedFree(a)
	}
	f.chAddrs = f.chAddrs[:0]
	var none P
	f.owner, f.phys, f.cmdSend, f.compSend = nil, none, nil, nil
}

// remap counts a successful rebind; it wraps bind's results.
func (f *forwarder[P]) remap(d sim.Duration, err error) (sim.Duration, error) {
	if err == nil {
		f.remaps++
	}
	return d, err
}

// submit takes a free slot, NT-stores payload (if any) into it, and
// sends the command for an n-byte operation. The caller has checked
// that the device is bound and n fits the slot.
func (f *forwarder[P]) submit(now sim.Time, op uint8, n int, arg int64, payload []byte, onDone func(sim.Time, []byte, error)) (sim.Duration, error) {
	if len(f.bufFree) == 0 {
		return 0, ErrNoIOBuffer
	}
	buf := f.bufFree[len(f.bufFree)-1]
	f.bufFree = f.bufFree[:len(f.bufFree)-1]
	var spent sim.Duration
	if payload != nil {
		// Software coherence: the payload must be in pool memory (not
		// our cache) before the remote device DMA-reads it.
		d, err := f.user.cache.NTStore(now, buf, payload)
		if err != nil {
			f.bufFree = append(f.bufFree, buf)
			return 0, err
		}
		spent += d
	}
	f.nextID++
	cmd := fwdDesc{kind: fwdCmd, op: op, n: uint32(n), arg: arg, addr: buf, id: f.nextID, stamp: now}
	sd, err := f.cmdSend.Send(now+spent, cmd.encodeInto(f.descBuf[:]))
	spent += sd
	if err != nil {
		f.bufFree = append(f.bufFree, buf)
		return spent, err
	}
	f.pending = append(f.pending, fwdPending{id: f.nextID, buf: buf, start: now, onDone: onDone})
	f.submitted++
	return spent, nil
}

// handleOwner runs on the owner's agent: start the command on the
// physical device; its completion publishes back to the user.
func (f *forwarder[P]) handleOwner(cur sim.Time, payload []byte) sim.Time {
	d := decodeFwdDesc(payload)
	if d.kind != fwdCmd {
		return cur
	}
	cur += pcie.MMIOWriteLatency // device doorbell
	if err := f.start(cur, d, f.compSend); err != nil {
		// The user side counts the failure when the reply lands.
		d.kind = fwdErr
		f.reply(cur, f.compSend, d)
	}
	f.owner.agent.forwarded++
	return cur
}

// complete publishes a device completion for command d: n result bytes
// at addr, or a failure. comp is the completion sender captured when
// the command started; if the binding has since been torn down, that
// channel is freed and the reply is dropped (the rebind already failed
// the operation back to its caller).
func (f *forwarder[P]) complete(comp *shm.Sender, d fwdDesc, addr mem.Address, n int, failed bool) {
	if comp != f.compSend {
		return
	}
	d.kind, d.addr, d.n = fwdComp, addr, uint32(n)
	if failed {
		d.kind = fwdErr
	}
	f.reply(f.user.pod.Engine.Now(), comp, d)
}

// reply sends completion d to the user.
func (f *forwarder[P]) reply(now sim.Time, comp *shm.Sender, d fwdDesc) {
	if _, err := comp.Send(now, d.encodeInto(f.descBuf[:])); err != nil {
		f.errs++
	}
}

// handleUser runs on the user's agent: fetch the result bytes from the
// shared slot, invoke the callback, recycle the slot.
func (f *forwarder[P]) handleUser(cur sim.Time, payload []byte) sim.Time {
	d := decodeFwdDesc(payload)
	if d.kind != fwdComp && d.kind != fwdErr {
		return cur
	}
	i := slices.IndexFunc(f.pending, func(p fwdPending) bool { return p.id == d.id })
	if i < 0 {
		return cur
	}
	p := f.pending[i]
	f.pending = slices.Delete(f.pending, i, i+1)
	var data []byte
	var opErr error
	if d.kind == fwdErr {
		opErr = f.class.failed
		f.errs++
	} else if d.n > 0 {
		f.dataBuf = slices.Grow(f.dataBuf[:0], int(d.n))
		data = f.dataBuf[:d.n]
		rd, err := f.user.cache.ReadStream(cur, d.addr, data)
		cur += rd
		if err != nil {
			opErr = err
			data = nil
		}
	}
	f.bufFree = append(f.bufFree, p.buf)
	f.completed++
	if opErr == nil {
		f.Latency.Record(float64(cur - p.start))
	}
	if p.onDone != nil {
		p.onDone(cur, data, opErr)
	}
	return cur
}
