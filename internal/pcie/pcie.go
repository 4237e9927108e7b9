// Package pcie models generic PCIe endpoint devices: a link shape, a
// DMA engine into host memory, and failure injection. The hardware PCIe
// switch the paper argues against appears only as ReassignLatency, its
// cost of moving a device between hosts.
//
// Devices in this repository (nicsim, ssdsim) embed an Endpoint. The
// Endpoint's DMA engine targets a mem.Memory, which is how the paper's
// key observation is expressed in code: a PCIe device does not care
// whether the buffer it DMAs to is local DDR or CXL pool memory — it is
// just an address (§1: "PCIe devices can directly use CXL memory as I/O
// buffers without device modifications").
package pcie

import (
	"errors"
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Timing constants for PCIe transactions.
const (
	// MMIOWriteLatency is a posted MMIO write (doorbell ring) to a
	// locally attached device.
	MMIOWriteLatency sim.Duration = 130
	// DMASetupLatency is the per-transfer TLP processing overhead of a
	// device-initiated DMA.
	DMASetupLatency sim.Duration = 90
	// ReassignLatency is the control-plane cost of moving a device
	// between hosts on a hardware PCIe switch (hot-unplug + hot-plug
	// flow, milliseconds).
	ReassignLatency sim.Duration = 50 * sim.Millisecond
)

// LaneBandwidthGen5 is effective per-lane PCIe 5.0 bandwidth.
const LaneBandwidthGen5 mem.GBps = 3.75

// LinkConfig is the PCIe link shape of a device.
type LinkConfig struct {
	Lanes int
	Gen   int
}

// Bandwidth returns the effective one-direction link bandwidth.
func (c LinkConfig) Bandwidth() mem.GBps {
	per := LaneBandwidthGen5
	switch {
	case c.Gen >= 6:
		per *= 2
	case c.Gen == 4:
		per /= 2
	case c.Gen <= 3 && c.Gen > 0:
		per /= 4
	}
	return per * mem.GBps(c.Lanes)
}

// Errors.
var (
	ErrDeviceFailed = errors.New("pcie: device failed")
	ErrNoDMATarget  = errors.New("pcie: DMA engine not attached to host memory")
)

// Endpoint is a PCIe device function: identity, link, and a DMA engine
// bound to the host's physical memory.
type Endpoint struct {
	name string
	link LinkConfig

	// hostMem is the memory the device can DMA to/from: the attaching
	// host's address space (local DRAM and, when buffers live in the
	// pool, the CXL window).
	hostMem mem.Memory

	// Fluid queue for the device's PCIe link (see mem.Region.access for
	// why fluid rather than busy-until).
	backlogBytes float64
	lastDrain    sim.Time

	failed bool

	// Stats.
	dmaReads, dmaWrites     uint64
	dmaBytesIn, dmaBytesOut uint64
}

// NewEndpoint creates a device endpoint with the given link shape.
func NewEndpoint(name string, link LinkConfig) *Endpoint {
	if link.Lanes <= 0 {
		panic(fmt.Sprintf("pcie: endpoint %q with no lanes", name))
	}
	return &Endpoint{name: name, link: link}
}

// Name returns the device name.
func (e *Endpoint) Name() string { return e.name }

// AttachHostMemory points the DMA engine at the host address space.
func (e *Endpoint) AttachHostMemory(m mem.Memory) { e.hostMem = m }

// HostMemory returns the current DMA target.
func (e *Endpoint) HostMemory() mem.Memory { return e.hostMem }

// Fail marks the device failed; DMA errors until Repair (§2.2
// device-failure scenarios).
func (e *Endpoint) Fail() { e.failed = true }

// Repair clears the failure.
func (e *Endpoint) Repair() { e.failed = false }

// Failed reports failure state.
func (e *Endpoint) Failed() bool { return e.failed }

// Stats returns DMA counters.
func (e *Endpoint) Stats() (dmaReads, dmaWrites, bytesIn, bytesOut uint64) {
	return e.dmaReads, e.dmaWrites, e.dmaBytesIn, e.dmaBytesOut
}

// linkTime serializes n bytes on the device link starting at now, using
// a fluid backlog queue.
func (e *Endpoint) linkTime(now sim.Time, n int) sim.Duration {
	bw := e.link.Bandwidth()
	if now > e.lastDrain {
		e.backlogBytes -= float64(bw.Bytes(now - e.lastDrain))
		if e.backlogBytes < 0 {
			e.backlogBytes = 0
		}
		e.lastDrain = now
	}
	queue := bw.TransferTime(int(e.backlogBytes))
	e.backlogBytes += float64(n)
	return queue + bw.TransferTime(n)
}

// DMARead is a device-initiated read of host memory (e.g. NIC fetching
// a TX payload). The returned latency covers TLP setup, the host memory
// access (which is where CXL vs DDR placement shows up), and link
// serialization.
func (e *Endpoint) DMARead(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if e.failed {
		return 0, fmt.Errorf("%w: %s", ErrDeviceFailed, e.name)
	}
	if e.hostMem == nil {
		return 0, ErrNoDMATarget
	}
	d := DMASetupLatency
	md, err := e.hostMem.ReadAt(now+d, a, buf)
	if err != nil {
		return 0, fmt.Errorf("pcie %s: DMA read: %w", e.name, err)
	}
	d += md
	d += e.linkTime(now+d, len(buf))
	e.dmaReads++
	e.dmaBytesOut += uint64(len(buf))
	return d, nil
}

// DMAWrite is a device-initiated write to host memory (e.g. NIC
// delivering an RX payload).
func (e *Endpoint) DMAWrite(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if e.failed {
		return 0, fmt.Errorf("%w: %s", ErrDeviceFailed, e.name)
	}
	if e.hostMem == nil {
		return 0, ErrNoDMATarget
	}
	d := DMASetupLatency + e.linkTime(now, len(buf))
	md, err := e.hostMem.WriteAt(now+d, a, buf)
	if err != nil {
		return 0, fmt.Errorf("pcie %s: DMA write: %w", e.name, err)
	}
	e.dmaWrites++
	e.dmaBytesIn += uint64(len(buf))
	return d + md, nil
}
