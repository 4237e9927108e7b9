package core

import (
	"fmt"
	"slices"

	"cxlpool/internal/mem"
	"cxlpool/internal/shm"
	"cxlpool/internal/sim"
)

// binding is the transport every pooled device shares (§4.1): a pair of
// shared-memory channels between the user and the owner of a physical
// device P, the two agent services that drain them, and a free list of
// I/O buffers in the CXL shared segment. The device that embeds it
// supplies the channel handlers, its descriptor codec, and whatever
// else a binding of it holds (a vNIC's posted RX buffers).
type binding[P any] struct {
	name  string
	user  *Host
	owner *Host
	phys  P

	toOwner  *shm.Sender // user→owner: commands, doorbells, reposts
	toUser   *shm.Sender // owner→user: completions
	ownerSvc *service
	userSvc  *service
	chAddrs  []mem.Address // channel footprints (freed on unbind)

	slots int    // channel slots per direction
	bufs  int    // free-list buffers per binding
	pool  string // names the free list in allocation errors
	free  []mem.Address

	// dev is the embedding device; onOwner and onUser are its channel
	// handlers, bound once so a bind creates no method values.
	dev     boundDevice
	onOwner func(sim.Time, []byte) sim.Time
	onUser  func(sim.Time, []byte) sim.Time

	remaps uint64
}

// boundDevice is a pooled device's own part of its binding.
type boundDevice interface {
	handleOwner(cur sim.Time, payload []byte) sim.Time
	handleUser(cur sim.Time, payload []byte) sim.Time
	// attach finishes a build on the binding's owner and phys once the
	// channels, services and free list stand; slot is the buffer size.
	attach(slot int) error
	// detach releases what attach built. It runs on every teardown,
	// after the free list is freed and before the channels are.
	detach()
}

func (b *binding[P]) init(user *Host, name string, dev boundDevice, slots, bufs int, pool string) {
	b.name, b.user, b.dev = name, user, dev
	b.slots, b.bufs, b.pool = slots, bufs, pool
	b.onOwner, b.onUser = dev.handleOwner, dev.handleUser
}

// rebind tears down the current binding and builds one to phys on
// owner with slot-byte buffers. It is all-or-nothing: on error the
// partial state is reclaimed and the device is left cleanly unbound.
func (b *binding[P]) rebind(owner *Host, phys P, slot int) (sim.Duration, error) {
	b.unbind()
	if err := b.build(owner, phys, slot); err != nil {
		b.unbind()
		return 0, err
	}
	return RemapLatency, nil
}

// build makes the binding; on error the caller reclaims the partial
// state (owner and phys are set first so the device can detach).
func (b *binding[P]) build(owner *Host, phys P, slot int) error {
	pod := b.user.pod
	toOwner, err := pod.NewChannel(b.slots)
	if err != nil {
		return err
	}
	b.chAddrs = append(b.chAddrs, toOwner.Base())
	toUser, err := pod.NewChannel(b.slots)
	if err != nil {
		return err
	}
	b.chAddrs = append(b.chAddrs, toUser.Base())
	b.owner, b.phys = owner, phys
	b.toOwner = toOwner.NewSender(b.user.cache)
	b.toUser = toUser.NewSender(owner.cache)
	b.ownerSvc = owner.agent.addService(toOwner.NewReceiver(owner.cache), b.onOwner)
	b.userSvc = b.user.agent.addService(toUser.NewReceiver(b.user.cache), b.onUser)
	b.free = slices.Grow(b.free[:0], b.bufs)
	for range b.bufs {
		a, err := pod.SharedAlloc(slot)
		if err != nil {
			return fmt.Errorf("%s: %w", b.pool, err)
		}
		b.free = append(b.free, a)
	}
	return b.dev.attach(slot)
}

// unbind deactivates both services and returns the free buffers, the
// device's own state and the channel footprints to the shared segment.
// In-flight descriptors are lost with the channels. Idempotent.
func (b *binding[P]) unbind() {
	if b.ownerSvc != nil {
		b.ownerSvc.active = false
		b.ownerSvc = nil
	}
	if b.userSvc != nil {
		b.userSvc.active = false
		b.userSvc = nil
	}
	pod := b.user.pod
	for _, a := range b.free {
		_ = pod.SharedFree(a)
	}
	b.free = b.free[:0]
	b.dev.detach()
	for _, a := range b.chAddrs {
		_ = pod.SharedFree(a)
	}
	b.chAddrs = b.chAddrs[:0]
	var none P
	b.owner, b.phys, b.toOwner, b.toUser = nil, none, nil, nil
}

// stale reports whether a completion to be published through comp
// belongs to a binding that is gone. An operation captures the
// completion sender when it starts; a NIC's receive callback always
// serves the live binding and passes toUser itself, so only an unbound
// vNIC drops its completions.
func (b *binding[P]) stale(comp *shm.Sender) bool {
	return comp == nil || comp != b.toUser
}

// remap counts a successful rebind; it wraps rebind's results.
func (b *binding[P]) remap(d sim.Duration, err error) (sim.Duration, error) {
	if err == nil {
		b.remaps++
	}
	return d, err
}

// take pops a free buffer.
func (b *binding[P]) take() (mem.Address, bool) {
	n := len(b.free)
	if n == 0 {
		return 0, false
	}
	a := b.free[n-1]
	b.free = b.free[:n-1]
	return a, true
}
