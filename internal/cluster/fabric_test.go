package cluster

import (
	"strings"
	"testing"

	"cxlpool/internal/topo"
)

// Tier conversions preserve the path/link aggregates, and the default
// fleet's derived tiers render the exact legacy strings the golden
// pins.
func TestTierFromTopologyRendersLegacyStrings(t *testing.T) {
	c, err := New(Config{Seed: 1, Federate: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.IntraRackTier().String(); got != "intra-rack (ToR) 1050ns / 12.5 GB/s" {
		t.Fatalf("intra tier renders %q", got)
	}
	if got := c.InterRackTier(0, 1).String(); got != "inter-rack (spine) 4050ns / 50.0 GB/s" {
		t.Fatalf("spine tier renders %q", got)
	}
	if got := c.MigrationCost(0, 1).String(); got != "343.64us" {
		t.Fatalf("default migration cost renders %q", got)
	}
	if got := c.RemotePenalty(0, 1).String(); got != "8100ns" {
		t.Fatalf("default remote penalty renders %q", got)
	}
}

// Cross-row tiers take the core-tier name and the aggregated path
// figures.
func TestInterRackTierNamesCrossRow(t *testing.T) {
	tp, err := topo.MultiRow(2, 2, topo.RackSpec{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topo: tp, Seed: 1, Federate: true})
	if err != nil {
		t.Fatal(err)
	}
	same, cross := c.InterRackTier(0, 1), c.InterRackTier(0, 2)
	if !strings.HasPrefix(same.Name, "inter-rack") || !strings.HasPrefix(cross.Name, "cross-row") {
		t.Fatalf("tier names = %q, %q", same.Name, cross.Name)
	}
	if cross.Latency <= same.Latency {
		t.Fatalf("cross-row tier latency %v not above same-row %v", cross.Latency, same.Latency)
	}
	p := tp.RackPath(0, 2)
	if cross.Latency != p.Latency || cross.Bandwidth != p.Bandwidth {
		t.Fatal("InterRackTier dropped path aggregates")
	}
}
