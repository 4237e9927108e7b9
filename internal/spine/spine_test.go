package spine

import (
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/topo"
)

func mustUniform(t *testing.T, racks int) *topo.Topology {
	t.Helper()
	tp, err := topo.Uniform(racks, topo.RackSpec{})
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return tp
}

func mustMultiRow(t *testing.T, rows, perRow int) *topo.Topology {
	t.Helper()
	tp, err := topo.MultiRow(rows, perRow, topo.RackSpec{})
	if err != nil {
		t.Fatalf("MultiRow: %v", err)
	}
	return tp
}

// Default racks pool 2 devices x 100 Gbps = 200 Gbps, under a 400 Gbps
// uplink bundle; the edge capacity is the pooled aggregate over the
// ratio, capped by the bundle.
func TestEdgeCapacities(t *testing.T) {
	tp := mustUniform(t, 4)
	n := New(tp, Config{Oversub: 1})
	st := n.LinkStats()
	if len(st) != 5 { // 4 rack uplinks + 1 row uplink
		t.Fatalf("LinkCount = %d, want 5", len(st))
	}
	for i := 0; i < 4; i++ {
		if st[i].CapGbps != 200 {
			t.Errorf("rack link %d cap = %g Gbps, want 200", i, st[i].CapGbps)
		}
	}
	if st[4].CapGbps != 800 { // min(row bundle 800, 4x200 aggregate)
		t.Errorf("row link cap = %g Gbps, want 800", st[4].CapGbps)
	}

	n4 := New(tp, Config{Oversub: 4})
	if got := n4.LinkStats()[0].CapGbps; got != 50 {
		t.Errorf("ratio 4 rack link cap = %g Gbps, want 50", got)
	}
	if got := n4.LinkStats()[4].CapGbps; got != 200 {
		t.Errorf("ratio 4 row link cap = %g Gbps, want 200", got)
	}

	// Heterogeneous 40G racks pool only 80 Gbps behind a 160 Gbps
	// bundle: their edge really is smaller than the 100G siblings'.
	het, err := topo.Preset(4, 1, "nic")
	if err != nil {
		t.Fatalf("Preset: %v", err)
	}
	nh := New(het, Config{Oversub: 1})
	sth := nh.LinkStats()
	if sth[0].CapGbps != 200 || sth[1].CapGbps != 80 {
		t.Errorf("het caps = %g, %g Gbps, want 200, 80", sth[0].CapGbps, sth[1].CapGbps)
	}

	if got := New(tp, Config{}).LinkStats()[0].CapGbps; got != 0 {
		t.Errorf("unlimited cap = %g, want 0 (unconstrained)", got)
	}
}

func TestPathLinkIDs(t *testing.T) {
	tp := mustMultiRow(t, 2, 2)
	n := New(tp, Config{Oversub: 1})
	same := pathLinkIDs(n, 0, 1) // same row: both rack uplinks only
	if len(same) != 2 {
		t.Fatalf("same-row path crosses %d links, want 2", len(same))
	}
	cross := pathLinkIDs(n, 0, 2) // cross-row: rack uplinks + both row uplinks
	if len(cross) != 4 {
		t.Fatalf("cross-row path crosses %d links, want 4", len(cross))
	}
	if pathLinkIDs(n, 1, 1) != nil || pathLinkIDs(n, -1, 0) != nil {
		t.Error("degenerate pairs should cross no links")
	}
}

// A non-blocking spine reproduces the analytic path cost exactly:
// zero wait, total = RTT + serialization at the path bottleneck.
func TestUnlimitedTransferMatchesAnalytic(t *testing.T) {
	tp := mustUniform(t, 2)
	n := New(tp, Config{})
	p := tp.RackPath(0, 1)
	bytes := 2 << 20
	want := p.RTT() + p.Bandwidth.TransferTime(bytes)
	for i := 0; i < 3; i++ { // repeats never queue
		wait, total := n.Transfer(0, 0, 1, bytes)
		if wait != 0 || total != want {
			t.Fatalf("transfer %d: wait %v total %v, want 0, %v", i, wait, total, want)
		}
	}
}

// On finite links a second transfer crossing the same uplink waits
// behind the first transfer's occupancy — FIFO at the link capacity.
func TestFiniteTransferQueuesFIFO(t *testing.T) {
	tp := mustUniform(t, 2)
	n := New(tp, Config{Oversub: 1}) // rack uplinks at 200 Gbps = 25 GB/s
	bytes := 2 << 20
	occ := mem.GBps(200.0 / 8).TransferTime(bytes)

	w1, t1 := n.Transfer(0, 0, 1, bytes)
	w2, t2 := n.Transfer(0, 0, 1, bytes)
	if w1 != 0 {
		t.Fatalf("first transfer waited %v", w1)
	}
	if w2 != occ {
		t.Fatalf("second transfer waited %v, want one occupancy %v", w2, occ)
	}
	if t2 != t1+occ {
		t.Fatalf("second total %v, want first total %v + %v", t2, t1, occ)
	}

	// Backlog is visible until the engine drains past the busy cursor.
	st := n.LinkStats()
	if st[0].Inflight != 2 || st[0].QueuedBytes != int64(2*bytes) {
		t.Fatalf("pre-drain link0: inflight %d queued %d", st[0].Inflight, st[0].QueuedBytes)
	}
	if err := n.AdvanceTo(t2 * 2); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	st = n.LinkStats()
	if st[0].Inflight != 0 || st[0].QueuedBytes != 0 {
		t.Fatalf("post-drain link0: inflight %d queued %d", st[0].Inflight, st[0].QueuedBytes)
	}
	if st[0].Transfers != 2 || st[0].CarriedBytes != uint64(2*bytes) || st[0].WaitTotal != occ {
		t.Fatalf("link0 accounting: %+v", st[0])
	}
}

// Fluid grants are proportional fair share on the most oversubscribed
// crossed link: grants conserve capacity and under-capacity demand is
// granted in full.
func TestGrantRateProportionalShare(t *testing.T) {
	tp := mustUniform(t, 3)
	n := New(tp, Config{Oversub: 4}) // rack uplinks at 50 Gbps
	n.BeginFlows()
	n.AddFlow(0, 1, 40)
	n.AddFlow(0, 2, 40) // rack0 uplink now at 80/50

	g1 := n.GrantRate(0, 1, 40)
	g2 := n.GrantRate(0, 2, 40)
	if g1 != 25 || g2 != 25 { // 40 * 50/80
		t.Fatalf("grants = %g, %g Gbps, want 25, 25", g1, g2)
	}
	if g1+g2 != 50 {
		t.Fatalf("grants sum %g, want link capacity 50", g1+g2)
	}
	if n.FlowFits(0, 1, 10) {
		t.Error("FlowFits should reject further demand on an oversubscribed uplink")
	}
	if !n.FlowFits(1, 2, 10) {
		t.Error("FlowFits should accept demand on idle uplinks")
	}

	sum := n.CloseFlows()
	if sum.MaxUtil != 80.0/50 {
		t.Errorf("MaxUtil = %g, want 1.6", sum.MaxUtil)
	}
	if sum.QueuedGbps != 30 {
		t.Errorf("QueuedGbps = %g, want 30", sum.QueuedGbps)
	}
	st := n.LinkStats()
	if st[0].PeakDemandGbps != 80 || st[0].PeakUtil != 1.6 || st[0].PeakQueuedGbps != 30 {
		t.Errorf("link0 fluid stats: %+v", st[0])
	}

	// Under-capacity demand passes through untouched.
	n.BeginFlows()
	n.AddFlow(0, 1, 30)
	if g := n.GrantRate(0, 1, 30); g != 30 {
		t.Errorf("uncongested grant = %g, want 30", g)
	}
}

func TestUnlimitedFlowsNeverThrottle(t *testing.T) {
	n := New(mustUniform(t, 2), Config{})
	n.BeginFlows()
	for i := 0; i < 100; i++ {
		n.AddFlow(0, 1, 100)
	}
	if !n.FlowFits(0, 1, 1e6) {
		t.Error("unlimited FlowFits must always accept")
	}
	if g := n.GrantRate(0, 1, 100); g != 100 {
		t.Errorf("unlimited grant = %g, want 100", g)
	}
	if sum := n.CloseFlows(); sum.MaxUtil != 0 || sum.QueuedGbps != 0 {
		t.Errorf("unlimited epoch summary: %+v", sum)
	}
}

// A non-blocking spine grants full demand even across a browned path:
// two stacked 0.3 brownouts leave the 400 Gbps path at 36 Gbps, yet an
// 80 Gbps flow keeps its 80. The same flow on a finite spine is capped
// at the browned bandwidth.
func TestUnlimitedGrantIgnoresBrownouts(t *testing.T) {
	tp := mustUniform(t, 2)
	browned := []Brownout{{Src: 0, Dst: 1, Scale: 0.3}, {Src: 0, Dst: 1, Scale: 0.3}}
	grant := func(cfg Config) (got, pathGbps float64) {
		n := New(tp, cfg)
		n.SetBrownouts(browned)
		n.BeginFlows()
		n.AddFlow(0, 1, 80)
		return n.GrantRate(0, 1, 80), float64(n.Path(0, 1).Bandwidth) * 8
	}
	got, pathGbps := grant(Config{})
	if pathGbps >= 80 {
		t.Fatalf("browned path carries %g Gbps, want below the 80 Gbps flow", pathGbps)
	}
	if got != 80 {
		t.Errorf("non-blocking grant = %g Gbps on a %g Gbps browned path, want full demand 80", got, pathGbps)
	}
	// Ratio 1 leaves the 200 Gbps rack uplinks uncongested, so only the
	// brownout binds.
	if got, pathGbps := grant(Config{Oversub: 1}); got != pathGbps {
		t.Errorf("finite grant = %g Gbps, want the browned path bandwidth %g", got, pathGbps)
	}
}

// Stacked brownouts compose multiplicatively but are floored at
// MinPathScale, so a pile-up cannot drive a path's bandwidth to ~0.
func TestStackedBrownoutsFloored(t *testing.T) {
	tp := mustUniform(t, 2)
	n := New(tp, Config{})
	base := tp.RackPath(0, 1).Bandwidth

	n.SetBrownouts([]Brownout{{Src: 0, Dst: 1, Scale: 0.5}})
	if got := n.Path(0, 1).Bandwidth; got != mem.GBps(float64(base)*0.5) {
		t.Fatalf("single brownout bandwidth = %v, want half of %v", got, base)
	}

	stack := make([]Brownout, 6)
	for i := range stack {
		stack[i] = Brownout{Src: 0, Dst: 1, Scale: 0.1} // product 1e-6
	}
	n.SetBrownouts(stack)
	got := n.Path(0, 1).Bandwidth
	want := mem.GBps(float64(base) * MinPathScale)
	if got != want {
		t.Fatalf("stacked brownout bandwidth = %v, want floored %v", got, want)
	}
	if got <= 0 {
		t.Fatal("stacked brownouts drove bandwidth to zero")
	}
}

// Same-row brownouts pin exactly their rack pair; cross-row brownouts
// tax the whole row-to-row bundle but never leak into other rows.
func TestBrownoutCoverScoping(t *testing.T) {
	tp := mustMultiRow(t, 2, 2) // racks 0,1 in row 0; racks 2,3 in row 1
	n := New(tp, Config{})

	n.SetBrownouts([]Brownout{{Src: 0, Dst: 1, Scale: 0.5}})
	if n.Path(0, 1).Bandwidth >= tp.RackPath(0, 1).Bandwidth {
		t.Error("same-row brownout should scale its pair")
	}
	if n.Path(0, 2).Bandwidth != tp.RackPath(0, 2).Bandwidth {
		t.Error("same-row brownout leaked onto a cross-row path")
	}

	n.SetBrownouts([]Brownout{{Src: 0, Dst: 2, Scale: 0.5}})
	if n.Path(1, 3).Bandwidth >= tp.RackPath(1, 3).Bandwidth {
		t.Error("cross-row brownout should tax the whole row bundle")
	}
	if n.Path(0, 1).Bandwidth != tp.RackPath(0, 1).Bandwidth {
		t.Error("cross-row brownout leaked onto a same-row path")
	}
}

// pathLinkIDs returns the precomputed link ids the src->dst path
// crosses.
func pathLinkIDs(n *Network, src, dst int) []int {
	if src < 0 || dst < 0 || src == dst {
		return nil
	}
	return n.pathLinks[src*len(n.rackLink)+dst]
}
