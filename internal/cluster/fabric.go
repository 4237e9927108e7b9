package cluster

import (
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Tier is one rung of the cluster interconnect hierarchy: a one-way
// latency plus the bandwidth one flow can draw through it. Tiers are
// the reporting view of the topology — where the old FabricModel
// hard-coded exactly two of them, they are now derived from topo.Path
// aggregation over the fleet's domain tree.
type Tier struct {
	Name      string
	Latency   sim.Duration
	Bandwidth mem.GBps
}

// RTT is the round-trip latency of the tier.
func (t Tier) RTT() sim.Duration { return 2 * t.Latency }

// Transfer returns the time to move n bytes over the tier: one
// traversal plus serialization at the tier's bandwidth. A zero-byte
// transfer costs one traversal.
func (t Tier) Transfer(n int) sim.Duration {
	return t.Latency + t.Bandwidth.TransferTime(n)
}

// String renders "name lat/bw".
func (t Tier) String() string {
	return fmt.Sprintf("%s %v / %.1f GB/s", t.Name, t.Latency, float64(t.Bandwidth))
}

// IntraRackTier is the fleet's within-rack tier for reporting (rack
// 0's view; inside a rack the pod's event simulation is the source of
// truth).
func (c *Cluster) IntraRackTier() Tier {
	l := c.cfg.Topo.IntraRack(0)
	return Tier{Name: "intra-rack (ToR)", Latency: l.Latency, Bandwidth: l.Bandwidth}
}

// InterRackTier is the aggregated rack-to-rack tier between racks a
// and b (brownouts applied), named by whether the path stays inside
// one row.
func (c *Cluster) InterRackTier(a, b int) Tier {
	name := "inter-rack (spine)"
	if !c.cfg.Topo.SameRow(a, b) {
		name = "cross-row (core)"
	}
	p := c.spine.Path(a, b)
	return Tier{Name: name, Latency: p.Latency, Bandwidth: p.Bandwidth}
}

// MigrationCost models one cross-rack tenant move from rack src to
// rack dst: a control round-trip over the path plus streaming the
// tenant's device state (buffers, rings, mappings) through its
// bottleneck bandwidth. Costs are charged per path, so a cross-row
// move is dearer than a same-row one.
func (c *Cluster) MigrationCost(src, dst int) sim.Duration {
	p := c.spine.Path(src, dst)
	return p.RTT() + p.Bandwidth.TransferTime(DefaultTenantState)
}

// RemotePenalty is the extra per-operation latency a spilled tenant
// pays while its device lives in rack dst and its compute in rack src:
// doorbell out and completion back, both across the path.
func (c *Cluster) RemotePenalty(src, dst int) sim.Duration {
	return c.spine.Path(src, dst).RTT()
}
