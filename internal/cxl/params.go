// Package cxl models CXL.mem interconnect hardware: links, multi-headed
// devices (MHDs), CXL switches, interleaving, and pods (the set of hosts
// attached to a pool).
//
// All timing constants are calibrated to the numbers the paper itself
// cites (§3): local DDR5 idle load-to-use ~110 ns; direct-attached CXL
// ~2.15× DDR (~237 ns, per the Leo controller measurement in [73]); CXL
// switches add >250 ns per traversal for 500–600 ns switched idle
// latency; a CXL 2.0 / PCIe-5.0 ×8 link carries ~30 GB/s (one DDR5-4800
// channel at a 2:1 read:write mix); Intel Xeon 6 exposes 64 CXL lanes per
// socket (~240 GB/s interleaved).
package cxl

import (
	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Calibration constants, each annotated with its source in the paper.
const (
	// DDRIdleReadLatency is local DDR5 idle load-to-use latency (§3).
	DDRIdleReadLatency sim.Duration = 110
	// DDRIdleWriteLatency is the posted-write completion latency for
	// local DDR5. Writes retire from store buffers faster than reads.
	DDRIdleWriteLatency sim.Duration = 80

	// CXLIdleReadLatency is direct (switch-less, MHD) CXL idle
	// load-to-use latency: 2.15 × 110 ns ≈ 237 ns, the idle-latency
	// ratio of direct-attached CXL to local DDR5 measured on an Astera
	// Leo controller (§3).
	CXLIdleReadLatency sim.Duration = 237
	// CXLIdleWriteLatency is the CXL posted-write latency. Non-temporal
	// stores to CXL complete once the write is accepted by the
	// controller; we model ~1.5× the DDR write latency plus link time.
	CXLIdleWriteLatency sim.Duration = 180

	// SwitchTraversalLatency is the total latency a CXL switch adds to a
	// load (§3: "current switches add more than 250 ns of latency,
	// resulting in idle load-to-use latency of roughly 500-600 ns").
	// A load crosses the switch twice (request and data return), so each
	// crossing costs half of this.
	SwitchTraversalLatency sim.Duration = 265

	// DDRChannelBandwidth is one DDR5-4800 channel at a 2:1 read:write
	// ratio, ~30 GB/s effective, but the raw channel is 38.4 GB/s.
	DDRChannelBandwidth mem.GBps = 38.4

	// LaneBandwidthGen5 is the effective per-lane bandwidth of a CXL 2.0
	// / PCIe-5.0 lane: the paper equates a ×8 link with 30 GB/s (§3), so
	// 3.75 GB/s per lane after framing overheads.
	LaneBandwidthGen5 mem.GBps = 3.75

	// XeonLanesPerSocket is the CXL lane count per Intel Xeon 6 socket
	// (§3, §5: 64 lanes ≈ 240 GB/s).
	XeonLanesPerSocket = 64

	// InterleaveGranularity is the CPU interleaving granularity across
	// CXL links (§3: 256 B).
	InterleaveGranularity = 256

	// MaxMHDPorts is the largest port count on a multi-headed device
	// shipping today (§3: "up to 20 CXL ports" on UnifabriX).
	MaxMHDPorts = 20

	// SwitchLaneCount is the lane capacity of a single CXL 2.0 switch
	// (§3: 128–256 lanes; we use the lower bound).
	SwitchLaneCount = 128
)

// DDRTiming returns the Timing of a local DDR5 channel.
func DDRTiming() mem.Timing {
	return mem.Timing{
		ReadLatency:  DDRIdleReadLatency,
		WriteLatency: DDRIdleWriteLatency,
		Bandwidth:    DDRChannelBandwidth,
	}
}

// LinkConfig describes one CXL link: lane count and generation.
type LinkConfig struct {
	// Lanes is the link width (x4, x8, x16).
	Lanes int
	// Gen is the PCIe physical generation (5 or 6).
	Gen int
}

// Bandwidth returns the effective one-direction bandwidth of the link.
func (c LinkConfig) Bandwidth() mem.GBps {
	per := LaneBandwidthGen5
	if c.Gen >= 6 {
		per *= 2
	}
	return per * mem.GBps(c.Lanes)
}

// X8Gen5 and X16Gen5 are the link shapes used throughout the paper's
// experiments (Figure 3 uses ×8 per socket; Figure 4 uses ×16).
var (
	X8Gen5  = LinkConfig{Lanes: 8, Gen: 5}
	X16Gen5 = LinkConfig{Lanes: 16, Gen: 5}
)
