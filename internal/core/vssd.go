package core

import (
	"errors"
	"fmt"

	"cxlpool/internal/shm"
	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

// VirtualSSD pools NVMe storage the same way VirtualNIC pools NICs
// (§4: "our design is compatible with other PCIe devices, including
// SSDs"): data buffers live in the CXL shared segment where both the
// remote host's CPU and the owning host's SSD can reach them; commands
// and completions travel over the shared-memory channels. Because NVMe
// latencies are tens of microseconds, the sub-microsecond forwarding
// cost is proportionally even smaller than for NICs. The transport,
// with its Latency recorder, is the embedded forwarder, built on the
// binding every pooled device shares.
type VirtualSSD struct {
	forwarder[*ssdsim.SSD]
	bufSize int
	// ioFree recycles device completions (as VirtualAccel's jobFree does).
	ioFree []*ssdIO
}

// ssdIO is one started I/O's device completion, bound once to its run
// method so an I/O hands ssdsim no fresh closure.
type ssdIO struct {
	v    *VirtualSSD
	comp *shm.Sender
	d    fwdDesc
	done func(ssdsim.Completion)
}

// run publishes the device's completion and recycles the I/O: a read
// names its data, already in the command's slot, as the result.
func (j *ssdIO) run(c ssdsim.Completion) {
	v, comp, d := j.v, j.comp, j.d
	j.comp = nil
	v.ioFree = append(v.ioFree, j)
	n := 0
	if ssdsim.Op(d.op) == ssdsim.OpRead {
		n = int(d.n)
	}
	v.complete(comp, d, d.addr, n, c.Err != nil)
}

// VSSDConfig sizes a virtual SSD.
type VSSDConfig struct {
	// BufSize is the I/O buffer size and maximum request size (default 64 KiB).
	BufSize int
	// Buffers is the buffer-pool depth, bounding outstanding I/O (default 32).
	Buffers int
	// ChannelSlots sizes each channel (default 256).
	ChannelSlots int
}

func (c *VSSDConfig) defaults() {
	if c.BufSize <= 0 {
		c.BufSize = 64 << 10
	}
	if c.Buffers <= 0 {
		c.Buffers = 32
	}
	if c.ChannelSlots <= 0 {
		c.ChannelSlots = 256
	}
}

var ssdClass = fwdClass{
	label:   "vSSD",
	failed:  errors.New("core: remote SSD I/O failed"),
	aborted: errors.New("core: I/O aborted by remap"),
}

// NewVirtualSSD creates an unbound virtual SSD for user.
func NewVirtualSSD(user *Host, name string, cfg VSSDConfig) *VirtualSSD {
	cfg.defaults()
	v := &VirtualSSD{bufSize: cfg.BufSize}
	v.init(user, name, ssdClass, cfg.Buffers, cfg.ChannelSlots, v.startIO)
	return v
}

// Bind attaches the virtual SSD to a physical SSD on owner. A failed
// Bind leaves the device unbound.
func (v *VirtualSSD) Bind(owner *Host, phys *ssdsim.SSD) (sim.Duration, error) {
	return v.bind(owner, phys, v.bufSize)
}

// Remap rebinds to a different SSD (failover). Outstanding I/O on the
// old device is failed back to callers.
//
//lint:allow testonly TestVirtualSSDRemapAbortsOutstanding and TestForwarderRemapMidOperation pin device failover
func (v *VirtualSSD) Remap(owner *Host, phys *ssdsim.SSD) (sim.Duration, error) {
	return v.remap(v.Bind(owner, phys))
}

// Read submits a read of n bytes at lba. onDone is invoked on the
// user's agent with the data or an error; the data slice is reusable
// scratch, valid only until the callback returns (copy to retain).
func (v *VirtualSSD) Read(now sim.Time, lba int64, n int, onDone func(now sim.Time, data []byte, err error)) (sim.Duration, error) {
	return v.io(now, ssdsim.OpRead, lba, nil, n, onDone)
}

// Write submits a write of data at lba.
func (v *VirtualSSD) Write(now sim.Time, lba int64, data []byte, onDone func(now sim.Time, data []byte, err error)) (sim.Duration, error) {
	return v.io(now, ssdsim.OpWrite, lba, data, len(data), onDone)
}

func (v *VirtualSSD) io(now sim.Time, op ssdsim.Op, lba int64, data []byte, n int, onDone func(sim.Time, []byte, error)) (sim.Duration, error) {
	if v.owner == nil {
		return 0, ErrNotBound
	}
	if n > v.bufSize {
		return 0, fmt.Errorf("%w: %d > %d", ErrIOTooLarge, n, v.bufSize)
	}
	return v.submit(now, uint8(op), n, lba, data, onDone)
}

// startIO rings the NVMe doorbell on the owner: a read lands its data
// in the command's slot.
func (v *VirtualSSD) startIO(cur sim.Time, d fwdDesc, comp *shm.Sender) error {
	var j *ssdIO
	if k := len(v.ioFree); k > 0 {
		j = v.ioFree[k-1]
		v.ioFree = v.ioFree[:k-1]
	} else {
		j = &ssdIO{v: v}
		j.done = j.run
	}
	j.comp, j.d = comp, d
	err := v.phys.Submit(cur, ssdsim.Op(d.op), d.arg, int(d.n), d.addr, j.done)
	if err != nil {
		// The device refused the I/O, so its completion never fires.
		j.comp = nil
		v.ioFree = append(v.ioFree, j)
	}
	return err
}
