package core

import (
	"errors"
	"fmt"

	"cxlpool/internal/accelsim"
	"cxlpool/internal/mem"
	"cxlpool/internal/shm"
	"cxlpool/internal/sim"
)

// VirtualAccel pools an accelerator card across hosts (§5 "soft
// accelerator disaggregation"): input and output buffers live in the
// CXL shared segment; jobs are submitted over shared-memory channels;
// the owner's agent drives the physical device. Deploying a 1:16
// accelerator:host ratio becomes a software mapping instead of a
// hardware topology. The transport, with its Latency recorder, is the
// embedded forwarder.
type VirtualAccel struct {
	forwarder[*accelsim.Accel]
	// bufSize is the input capacity; each slot holds the input in its
	// first bufSize bytes and the output after it.
	bufSize int
}

// VAccelConfig sizes a virtual accelerator.
type VAccelConfig struct {
	// BufSize is the maximum input size; each slot reserves room for
	// input plus the profile's worst-case output (default 64 KiB input).
	BufSize int
	// Buffers bounds outstanding jobs (default 8).
	Buffers int
	// ChannelSlots sizes the channels (default 128).
	ChannelSlots int
}

func (c *VAccelConfig) defaults() {
	if c.BufSize <= 0 {
		c.BufSize = 64 << 10
	}
	if c.Buffers <= 0 {
		c.Buffers = 8
	}
	if c.ChannelSlots <= 0 {
		c.ChannelSlots = 128
	}
}

var accelClass = fwdClass{
	label:   "vAccel",
	failed:  errors.New("core: remote accelerator job failed"),
	aborted: errors.New("core: job aborted by remap"),
}

// NewVirtualAccel creates an unbound virtual accelerator for user.
func NewVirtualAccel(user *Host, name string, cfg VAccelConfig) *VirtualAccel {
	cfg.defaults()
	v := &VirtualAccel{
		forwarder: newForwarder[*accelsim.Accel](user, name, accelClass, cfg.Buffers, cfg.ChannelSlots),
		bufSize:   cfg.BufSize,
	}
	v.start = v.startJob
	return v
}

// slotSize is input capacity plus worst-case output for phys's profile.
func (v *VirtualAccel) slotSize(phys *accelsim.Accel) int {
	out := int(float64(v.bufSize) * accelsim.DefaultProfile(phys.Kind()).Expansion)
	return v.bufSize + max(out, v.bufSize)
}

// Bind attaches the virtual accelerator to a physical device on owner.
// A failed Bind leaves the device unbound.
func (v *VirtualAccel) Bind(owner *Host, phys *accelsim.Accel) (sim.Duration, error) {
	return v.bind(owner, phys, v.slotSize(phys))
}

// Remap rebinds to a different accelerator; outstanding jobs abort.
//
//lint:allow testonly TestVirtualAccelFailureAndRemap and TestForwarderRemapMidOperation pin device failover
func (v *VirtualAccel) Remap(owner *Host, phys *accelsim.Accel) (sim.Duration, error) {
	return v.remap(v.Bind(owner, phys))
}

// Submit offloads input to the pooled accelerator. onDone receives the
// output bytes in reusable scratch, valid only until the callback
// returns (copy to retain).
func (v *VirtualAccel) Submit(now sim.Time, input []byte, onDone func(now sim.Time, output []byte, err error)) (sim.Duration, error) {
	if v.owner == nil {
		return 0, ErrNotBound
	}
	if len(input) == 0 || len(input) > v.bufSize {
		return 0, fmt.Errorf("%w: %d (max %d)", ErrIOTooLarge, len(input), v.bufSize)
	}
	return v.submit(now, 0, len(input), 0, input, onDone)
}

// startJob starts the job on the owner; the output goes to the second
// half of the slot.
func (v *VirtualAccel) startJob(cur sim.Time, d fwdDesc, comp *shm.Sender) error {
	out := d.addr + mem.Address(v.bufSize)
	return v.phys.Submit(cur, d.addr, out, int(d.n), func(j accelsim.Job) {
		v.complete(comp, d, out, j.OutputLen, j.Err != nil)
	})
}
