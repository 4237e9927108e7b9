package topo

import (
	"errors"
	"testing"

	"cxlpool/internal/sim"
)

func mustTopo(t *testing.T, tp *Topology, err error) *Topology {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// The default single-row fleet must reproduce the legacy two-tier
// fabric exactly: any rack pair aggregates to the old inter-rack spine
// tier (4050 ns one way, 50 GB/s, two links), because the cluster
// golden pins those bytes.
func TestDefaultMatchesLegacySpineTier(t *testing.T) {
	tp := Default()
	if tp.RackCount() != 4 || tp.RowCount() != 1 {
		t.Fatalf("default fleet = %v, want 4 racks in 1 row", tp)
	}
	for j := 1; j < 4; j++ {
		p := tp.RackPath(0, j)
		if p.Hops != 2 || p.Latency != 4050 || p.Bandwidth != 50 {
			t.Fatalf("rack0->rack%d path = %+v, want {2 4050 50}", j, p)
		}
		if p.RTT() != 8100 {
			t.Fatalf("RTT = %v, want 8100ns", p.RTT())
		}
	}
	intra := tp.IntraRack(0)
	if intra.Latency != 1050 || intra.Bandwidth != 12.5 {
		t.Fatalf("intra-rack tier = %+v, want {1050 12.5}", intra)
	}
}

// Single-node paths are free: zero hops, zero latency, and transfers
// of any size cost nothing.
func TestSingleNodePath(t *testing.T) {
	tp := Default()
	for _, d := range []*Domain{tp.Rack(2), tp.Rows()[0], tp.Root(), tp.Rack(0).children[1]} {
		p := tp.Path(d, d)
		if p.Hops != 0 || p.Latency != 0 {
			t.Fatalf("self path of %s = %+v, want zero", d.Name, p)
		}
		if got := transfer(p, 1<<20); got != 0 {
			t.Fatalf("self transfer = %v, want 0", got)
		}
	}
}

// Zero-byte transfers cost exactly one traversal (the control
// round-trip half), never a serialization term.
func TestZeroByteTransfer(t *testing.T) {
	tp := Default()
	p := tp.RackPath(0, 1)
	if got := transfer(p, 0); got != p.Latency {
		t.Fatalf("zero-byte transfer = %v, want latency %v", got, p.Latency)
	}
	if got := transfer(p, -8); got != p.Latency {
		t.Fatalf("negative-size transfer = %v, want latency %v", got, p.Latency)
	}
}

// Bandwidth aggregation picks the bottleneck link on heterogeneous
// paths: a 40G rack's bundled uplink (20 GB/s) caps any path touching
// it, while the 100G pair keeps the full 50 GB/s.
func TestBandwidthBottleneckSelection(t *testing.T) {
	het, err := New([][]RackSpec{{{}, {NICGbps: 40}, {}}})
	tp := mustTopo(t, het, err)
	if bw := tp.RackPath(0, 1).Bandwidth; bw != 20 {
		t.Fatalf("100G->40G bottleneck = %v, want 20", bw)
	}
	if bw := tp.RackPath(1, 0).Bandwidth; bw != 20 {
		t.Fatalf("path bottleneck not symmetric: %v", bw)
	}
	if bw := tp.RackPath(0, 2).Bandwidth; bw != 50 {
		t.Fatalf("100G->100G bottleneck = %v, want 50", bw)
	}
	// The slower path serializes the same payload more slowly.
	if fast, slow := transfer(tp.RackPath(0, 2), 16<<20), transfer(tp.RackPath(0, 1), 16<<20); slow <= fast {
		t.Fatalf("bottlenecked transfer %v not slower than full-rate %v", slow, fast)
	}
}

// Cross-row paths cross four links and the core, and cost strictly
// more than same-row paths; host-level paths traverse their rack ToRs.
func TestMultiRowPathAggregation(t *testing.T) {
	mr, err := MultiRow(2, 2, RackSpec{})
	tp := mustTopo(t, mr, err)
	same, cross := tp.RackPath(0, 1), tp.RackPath(0, 2)
	if same.Hops != 2 || cross.Hops != 4 {
		t.Fatalf("hops: same-row %d cross-row %d, want 2 and 4", same.Hops, cross.Hops)
	}
	if cross.Latency <= same.Latency {
		t.Fatalf("cross-row latency %v not above same-row %v", cross.Latency, same.Latency)
	}
	if !tp.SameRow(0, 1) || tp.SameRow(1, 2) || tp.RowOf(3) != 1 {
		t.Fatal("row membership wrong")
	}
	// Host under rack0 to host under rack1: two host links, two rack
	// uplinks, two ToR transits, one spine transit.
	a, b := tp.Rack(0).children[0], tp.Rack(1).children[0]
	hp := tp.Path(a, b)
	if hp.Hops != 4 {
		t.Fatalf("host-to-host hops = %d, want 4", hp.Hops)
	}
	wantLat := 2*450 + 2*600 + same.Latency // host cables + ToR transits + rack pair
	if hp.Latency != sim.Duration(wantLat) {
		t.Fatalf("host-to-host latency = %v, want %d", hp.Latency, wantLat)
	}
	// Host to its own rack domain: one link up, no transit.
	up := tp.Path(a, tp.Rack(0))
	if up.Hops != 1 || up.Latency != 450 {
		t.Fatalf("host->own-rack path = %+v, want {1 450 ...}", up)
	}
}

// Preset splits racks contiguously, applies heterogeneity to odd
// racks, and validates its inputs.
func TestPreset(t *testing.T) {
	pr, err := Preset(7, 3, "nic")
	tp := mustTopo(t, pr, err)
	if tp.RackCount() != 7 || tp.RowCount() != 3 {
		t.Fatalf("preset shape = %v", tp)
	}
	// 7 racks over 3 rows: 3+2+2.
	counts := []int{}
	for _, row := range tp.Rows() {
		counts = append(counts, len(row.children))
	}
	if counts[0] != 3 || counts[1] != 2 || counts[2] != 2 {
		t.Fatalf("row split = %v, want [3 2 2]", counts)
	}
	for i, r := range tp.Racks() {
		want := float64(DefaultNICGbps)
		if i%2 == 1 {
			want = 40
		}
		if r.Spec.NICGbps != want {
			t.Fatalf("rack %d NIC rate = %g, want %g", i, r.Spec.NICGbps, want)
		}
	}
	for _, bad := range []func() (*Topology, error){
		func() (*Topology, error) { return Preset(0, 1, "none") },
		func() (*Topology, error) { return Preset(4, 5, "none") },
		func() (*Topology, error) { return Preset(4, 2, "bogus") },
		func() (*Topology, error) { return Uniform(2, RackSpec{Hosts: 1}) },
		func() (*Topology, error) { return New(nil) },
		func() (*Topology, error) { return New([][]RackSpec{{}}) },
	} {
		if _, err := bad(); !errors.Is(err, ErrInvalid) {
			t.Fatalf("invalid topology accepted (err=%v)", err)
		}
	}
}

// Specs normalize zero fields to the documented defaults and derive
// device counts and capacity.
func TestRackSpecDefaults(t *testing.T) {
	u, err := Uniform(1, RackSpec{})
	tp := mustTopo(t, u, err)
	s := tp.Rack(0).Spec
	if s.Hosts != 3 || s.NICsPerHost != 1 || s.NICGbps != 100 || s.DeviceMiB != 128 {
		t.Fatalf("normalized spec = %+v", s)
	}
	if s.Devices() != 2 || s.CapacityGbps() != 200 || s.NICRate() != 12.5 {
		t.Fatalf("derived: devices=%d capacity=%g rate=%v", s.Devices(), s.CapacityGbps(), s.NICRate())
	}
}

// The power/cooling overlay: PDUs chunk adjacent racks within a row
// (never across rows), CRACs map one-to-one onto rows, and WithPDUSpan
// regroups without touching the tree.
func TestPowerCoolingDomains(t *testing.T) {
	// 5 racks in 2 rows (3+2) at the default span of 2: row0 gives
	// PDUs {0,1},{2}; row1 gives {3,4}.
	tp, err := Preset(5, 2, "none")
	if err != nil {
		t.Fatal(err)
	}
	if tp.PDUSpan() != DefaultPDUSpan {
		t.Fatalf("PDUSpan = %d, want %d", tp.PDUSpan(), DefaultPDUSpan)
	}
	if tp.PDUCount() != 3 {
		t.Fatalf("PDUCount = %d, want 3", tp.PDUCount())
	}
	wantPDUs := [][]int{{0, 1}, {2}, {3, 4}}
	for p, want := range wantPDUs {
		got := tp.PDURacks(p)
		if len(got) != len(want) {
			t.Fatalf("PDURacks(%d) = %v, want %v", p, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PDURacks(%d) = %v, want %v", p, got, want)
			}
			if tp.PDUOf(want[i]) != p {
				t.Fatalf("PDUOf(%d) = %d, want %d", want[i], tp.PDUOf(want[i]), p)
			}
		}
	}
	// A PDU never spans rows.
	for p := 0; p < tp.PDUCount(); p++ {
		racks := tp.PDURacks(p)
		for _, r := range racks[1:] {
			if tp.RowOf(r) != tp.RowOf(racks[0]) {
				t.Fatalf("PDU %d spans rows: racks %v", p, racks)
			}
		}
	}
	// CRACs are rows.
	if tp.CRACCount() != tp.RowCount() {
		t.Fatalf("CRACCount = %d, want %d", tp.CRACCount(), tp.RowCount())
	}

	// Regrouping: span 1 isolates every rack; a huge span puts each
	// whole row on one PDU. The original topology is untouched.
	one, err := tp.WithPDUSpan(1)
	if err != nil {
		t.Fatal(err)
	}
	if one.PDUCount() != 5 || one.PDUOf(4) != 4 {
		t.Fatalf("span-1 overlay wrong: count=%d", one.PDUCount())
	}
	wide, err := tp.WithPDUSpan(64)
	if err != nil {
		t.Fatal(err)
	}
	if wide.PDUCount() != 2 {
		t.Fatalf("span-64 PDUCount = %d, want one per row", wide.PDUCount())
	}
	if tp.PDUCount() != 3 {
		t.Fatal("WithPDUSpan mutated the receiver")
	}
	if _, err := tp.WithPDUSpan(0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("WithPDUSpan(0) = %v, want ErrInvalid", err)
	}
	// The tree is shared, not rebuilt.
	if one.Rack(0) != tp.Rack(0) || one.Root() != tp.Root() {
		t.Fatal("WithPDUSpan rebuilt the domain tree")
	}
	_ = sim.Duration(0)
}

// Bottleneck selection between tiers: by default the rack uplink is
// the narrowest crossed link (the 100 GB/s row uplink never binds);
// thin the inter-row edge below the rack uplinks — below even a
// heterogeneous 40G rack's bundle — and cross-row paths bottleneck on
// it while same-row paths are untouched.
func TestBottleneckInterRowVsRackUplink(t *testing.T) {
	specs := [][]RackSpec{{{}, {NICGbps: 40}}, {{}, {}}}

	def, err := NewWithLinks(specs, Links{})
	tp := mustTopo(t, def, err)
	if bw := tp.RackPath(0, 2).Bandwidth; bw != 50 {
		t.Fatalf("default cross-row bottleneck = %v, want rack uplink 50", bw)
	}
	// The 40G rack's 20 GB/s uplink is the bottleneck on every path it
	// joins, same-row or cross-row.
	if bw := tp.RackPath(1, 2).Bandwidth; bw != 20 {
		t.Fatalf("het cross-row bottleneck = %v, want 40G rack uplink 20", bw)
	}
	if bw := tp.RackPath(0, 1).Bandwidth; bw != 20 {
		t.Fatalf("het same-row bottleneck = %v, want 40G rack uplink 20", bw)
	}

	thinned, err := NewWithLinks(specs, Links{RowUplink: Link{Latency: 2250, Bandwidth: 10}})
	thin := mustTopo(t, thinned, err)
	if bw := thin.RackPath(0, 2).Bandwidth; bw != 10 {
		t.Fatalf("thinned cross-row bottleneck = %v, want inter-row edge 10", bw)
	}
	if bw := thin.RackPath(1, 2).Bandwidth; bw != 10 {
		t.Fatalf("thinned het cross-row bottleneck = %v, want inter-row edge 10 (below the 20 GB/s bundle)", bw)
	}
	if bw := thin.RackPath(0, 1).Bandwidth; bw != 20 {
		t.Fatalf("same-row bottleneck changed to %v under a thin row uplink, want 20", bw)
	}
	// The narrower edge streams the same state strictly slower.
	if fast, slow := transfer(tp.RackPath(0, 2), 16<<20), transfer(thin.RackPath(0, 2), 16<<20); slow <= fast {
		t.Fatalf("thin-edge transfer %v not slower than default %v", slow, fast)
	}
}

// transfer is the time to move n bytes over p: one traversal plus
// serialization at the bottleneck bandwidth.
func transfer(p Path, n int) sim.Duration {
	return p.Latency + p.Bandwidth.TransferTime(n)
}
