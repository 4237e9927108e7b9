// Package workload provides synthetic workload generators shared by the
// experiments: a heterogeneous VM-type mix calibrated to reproduce the
// stranding profile of Figure 2, packet-size mixes, and skewed demand
// streams.
//
// The paper's Figure 2 uses proprietary Azure production data; per the
// substitution rule this package provides a synthetic VM population
// whose *marginal* resource-demand distribution yields the same
// stranding percentages when packed (CPU ≈ 8%, memory ≈ 3%, SSD ≈ 54%,
// NIC ≈ 29% stranded), so every downstream experiment (√N pooling,
// orchestrator load balancing) runs end to end.
package workload

import (
	"fmt"

	"cxlpool/internal/sim"
)

// Resources is a demand or capacity vector over the four dimensions of
// Figure 2.
type Resources struct {
	Cores   float64
	MemGB   float64
	SSDGB   float64
	NICGbps float64
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.Cores + o.Cores, r.MemGB + o.MemGB, r.SSDGB + o.SSDGB, r.NICGbps + o.NICGbps}
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{r.Cores - o.Cores, r.MemGB - o.MemGB, r.SSDGB - o.SSDGB, r.NICGbps - o.NICGbps}
}

// Fits reports whether demand o fits within r.
func (r Resources) Fits(o Resources) bool {
	return o.Cores <= r.Cores && o.MemGB <= r.MemGB && o.SSDGB <= r.SSDGB && o.NICGbps <= r.NICGbps
}

// String renders the vector compactly.
func (r Resources) String() string {
	return fmt.Sprintf("%gc/%gGB/%gGBssd/%gGbps", r.Cores, r.MemGB, r.SSDGB, r.NICGbps)
}

// VMType is one flavor in the synthetic population.
type VMType struct {
	Name string
	// Freq is the selection probability; frequencies across the mix
	// must sum to 1.
	Freq float64
	Req  Resources
}

// DefaultVMTypes is the calibrated mix: general-purpose and
// memory-optimized types dominate (as in public clouds), with storage-
// and network-heavy flavors in the tail. The mix is tuned so CPU and
// memory are the binding dimensions on almost every host while SSD and
// NIC strand heavily — Figure 2's profile.
func DefaultVMTypes() []VMType {
	return []VMType{
		{Name: "D8s", Freq: 0.30, Req: Resources{8, 32, 400, 4}},
		{Name: "E8s", Freq: 0.25, Req: Resources{8, 128, 500, 4}},
		{Name: "F16s", Freq: 0.15, Req: Resources{16, 64, 500, 10}},
		{Name: "D4s", Freq: 0.15, Req: Resources{4, 16, 150, 2}},
		{Name: "L8s", Freq: 0.10, Req: Resources{8, 64, 3000, 16}},
		{Name: "M16s", Freq: 0.05, Req: Resources{16, 256, 800, 25}},
	}
}

// DefaultHost is the host shape: a two-socket cloud server with a
// 100 Gbps NIC and a local NVMe array (cf. §1: "servers that physically
// connect a dozen SSDs over PCIe", AWS/Azure shapes).
func DefaultHost() Resources {
	return Resources{Cores: 96, MemGB: 768, SSDGB: 15000, NICGbps: 100}
}

// Sampler draws VMs from a mix.
type Sampler struct {
	types []VMType
	cdf   []float64
	rng   *sim.Rand
}

// NewSampler validates the mix and builds a sampler.
func NewSampler(types []VMType, rng *sim.Rand) (*Sampler, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("workload: empty VM mix")
	}
	cdf := make([]float64, len(types))
	sum := 0.0
	for i, t := range types {
		if t.Freq < 0 {
			return nil, fmt.Errorf("workload: negative frequency for %s", t.Name)
		}
		sum += t.Freq
		cdf[i] = sum
	}
	if sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("workload: frequencies sum to %g, want 1", sum)
	}
	return &Sampler{types: types, cdf: cdf, rng: rng}, nil
}

// Next draws one VM type.
func (s *Sampler) Next() VMType {
	u := s.rng.Float64()
	for i, c := range s.cdf {
		if u <= c {
			return s.types[i]
		}
	}
	return s.types[len(s.types)-1]
}

// TenantDemand samples baseline NIC demand (Gbps) for pooled-device
// tenants: light services dominate, with elephants in the tail. It is
// the per-tenant analogue of the VM mix — tuned so a handful of
// tenants per rack sits comfortably inside one rack's NIC capacity
// until a hotspot multiplies it.
type TenantDemand struct {
	levels []float64
	freqs  []float64
	cdf    []float64
	rng    *sim.Rand
}

// DefaultTenantLevels is the baseline demand mix: (Gbps, frequency).
func DefaultTenantLevels() ([]float64, []float64) {
	return []float64{2, 5, 10, 20, 40}, []float64{0.35, 0.30, 0.20, 0.10, 0.05}
}

// NewTenantDemand builds a sampler over (Gbps, frequency) pairs; nil
// slices select the default mix.
func NewTenantDemand(levels, freqs []float64, rng *sim.Rand) (*TenantDemand, error) {
	if levels == nil && freqs == nil {
		levels, freqs = DefaultTenantLevels()
	}
	if len(levels) == 0 || len(levels) != len(freqs) {
		return nil, fmt.Errorf("workload: demand levels/freqs mismatch")
	}
	cdf := make([]float64, len(freqs))
	sum := 0.0
	for i, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("workload: negative demand frequency")
		}
		sum += f
		cdf[i] = sum
	}
	if sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("workload: demand frequencies sum to %g, want 1", sum)
	}
	return &TenantDemand{levels: levels, freqs: freqs, cdf: cdf, rng: rng}, nil
}

// Next draws one tenant's baseline demand in Gbps.
func (t *TenantDemand) Next() float64 {
	u := t.rng.Float64()
	for i, c := range t.cdf {
		if u <= c {
			return t.levels[i]
		}
	}
	return t.levels[len(t.levels)-1]
}

// RackSkew is the rotating-hotspot demand schedule for multi-rack
// experiments: in every epoch exactly one rack is "hot" and tenants
// homed there demand HotFactor× their baseline, while every other
// rack idles at baseline. The hotspot walks the racks round-robin,
// dwelling Period epochs on each — the skewed, time-varying tenant
// traffic that makes cross-rack spilling pay off (a static skew would
// reward a one-time placement instead of a control plane).
type RackSkew struct {
	// Racks in the cluster (must be > 0 for HotRack to rotate).
	Racks int
	// HotFactor multiplies hot-rack tenant demand (default 5).
	HotFactor float64
	// Period is epochs of hotspot residence per rack (default 2).
	Period int
}

func (s RackSkew) period() int {
	if s.Period <= 0 {
		return 2
	}
	return s.Period
}

// HotRack returns the hot rack index for an epoch.
func (s RackSkew) HotRack(epoch int) int {
	if s.Racks <= 0 {
		return 0
	}
	return (epoch / s.period()) % s.Racks
}

// Factor returns the demand multiplier for a rack in an epoch.
func (s RackSkew) Factor(epoch, rack int) float64 {
	if rack != s.HotRack(epoch) {
		return 1
	}
	if s.HotFactor <= 0 {
		return 5
	}
	return s.HotFactor
}
