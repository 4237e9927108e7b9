// Package bwplan implements the §5 "CXL link bandwidth" lane math: how
// many CXL lanes a host needs to fully disaggregate a given set of PCIe
// devices through the pool, and whether that fits a CPU socket's lane
// budget.
//
// The paper's examples: a 200 Gbps NIC needs 8 lanes and a 400 Gbps NIC
// 16; six 5 GB/s NVMe SSDs need 8 lanes; driving eight 400 Gbps NICs
// from one host would need >100 lanes, "making this use case less
// realistic" on a 64-lane socket.
package bwplan

import (
	"errors"
	"fmt"
	"math"

	"cxlpool/internal/cxl"
	"cxlpool/internal/mem"
)

// Device is one PCIe device class to disaggregate.
type Device struct {
	Name string
	// Bandwidth is the device's peak one-direction data rate in GB/s
	// (a 200 Gbps NIC is 25 GB/s; a 5 GB/s SSD is 5).
	Bandwidth mem.GBps
	// Count is how many of these one host should drive at once.
	Count int
}

// NICGbps builds a NIC device entry from a line rate in Gbps.
func NICGbps(name string, gbps float64, count int) Device {
	return Device{Name: name, Bandwidth: mem.GBps(gbps / 8), Count: count}
}

// LinkWidths are the widths CXL links come in.
var LinkWidths = []int{1, 2, 4, 8, 16}

// Plan is the lane requirement for one device set.
type Plan struct {
	Device Device
	// RawLanes is the exact lane count before rounding to link widths.
	RawLanes int
	// Lanes is the allocation rounded up to buildable link widths
	// (sums of x16/x8/... links).
	Lanes int
	// FitsSocket reports whether the allocation fits one Xeon-6-class
	// socket (64 lanes).
	FitsSocket bool
	// SocketFraction is Lanes / lanes-per-socket.
	SocketFraction float64
}

// String renders a table row.
func (p Plan) String() string {
	fit := "yes"
	if !p.FitsSocket {
		fit = "NO"
	}
	return fmt.Sprintf("%-24s %6.1f GB/s x%-2d -> %3d lanes (%.0f%% of socket, fits: %s)",
		p.Device.Name, float64(p.Device.Bandwidth), p.Device.Count, p.Lanes,
		p.SocketFraction*100, fit)
}

// LanesFor computes the lane requirement to carry bw GB/s over CXL 2.0
// (Gen5) lanes.
func LanesFor(bw mem.GBps) int {
	if bw <= 0 {
		return 0
	}
	return int(math.Ceil(float64(bw) / float64(cxl.LaneBandwidthGen5)))
}

// roundToLinks rounds a raw lane count up to a buildable allocation:
// interleave sets use uniform-width links, so a requirement of ≤16
// lanes rounds to the next standard width, and anything larger uses
// whole ×16 links.
func roundToLinks(raw int) int {
	if raw <= 0 {
		return 0
	}
	if raw <= 16 {
		for _, w := range LinkWidths {
			if w >= raw {
				return w
			}
		}
	}
	return ((raw + 15) / 16) * 16
}

// PlanDevice computes the §5 lane row for one device class.
func PlanDevice(d Device) (Plan, error) {
	if d.Count <= 0 {
		return Plan{}, errors.New("bwplan: device count must be positive")
	}
	if d.Bandwidth <= 0 {
		return Plan{}, fmt.Errorf("bwplan: %s has no bandwidth", d.Name)
	}
	raw := LanesFor(d.Bandwidth * mem.GBps(d.Count))
	lanes := roundToLinks(raw)
	return Plan{
		Device:         d,
		RawLanes:       raw,
		Lanes:          lanes,
		FitsSocket:     lanes <= cxl.XeonLanesPerSocket,
		SocketFraction: float64(lanes) / float64(cxl.XeonLanesPerSocket),
	}, nil
}

// PaperExamples returns the exact device set §5 discusses.
func PaperExamples() []Device {
	return []Device{
		NICGbps("NIC 200Gbps", 200, 1),
		NICGbps("NIC 400Gbps", 400, 1),
		{Name: "6x NVMe SSD (5GB/s)", Bandwidth: 5, Count: 6},
		NICGbps("8x NIC 400Gbps (peak)", 400, 8),
	}
}

// PlanAll plans every device and returns the rows.
func PlanAll(devices []Device) ([]Plan, error) {
	out := make([]Plan, 0, len(devices))
	for _, d := range devices {
		p, err := PlanDevice(d)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
