// Package topo is the declarative fleet-topology model the cluster
// layer places and charges against. A fleet is a tree of domains —
// cluster root, rows, racks, hosts — with a typed Link on every edge
// and per-rack hardware specs (host/device counts, NIC speed, CXL
// media). Everything the old two-tier FabricModel hard-coded is now
// computed from the tree:
//
//   - Path(a, b) aggregates the tree walk between two domains into
//     hops, one-way latency (links plus transit switching), and the
//     bottleneck bandwidth — the cost model for spills, migrations,
//     and drains.
//   - Heterogeneous racks are just different RackSpecs on sibling
//     domains; the bandwidth bottleneck falls out of the path min.
//   - Multi-row fleets are one more tree level; "same-row before
//     cross-row" placement preferences read Path(...).Hops.
//
// Topologies are built through validating constructors (Uniform,
// MultiRow, New for explicit per-rack specs, or the CLI-facing Preset)
// and are immutable afterwards; default link shapes derive from netsim's switch
// constants exactly like the old cluster.DefaultFabric did, so the
// default single-row fleet reproduces the previous spine tier
// (4050 ns, 50 GB/s between any two racks) byte for byte.
package topo

import (
	"errors"
	"fmt"
	"strings"

	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/sim"
)

// Rack hardware defaults, matching the shape the cluster layer has
// always simulated: three hosts (one orchestrator home plus two device
// hosts), one pooled 100 Gbps NIC per device host, 128 MiB MHDs.
const (
	DefaultHostsPerRack = 3
	DefaultNICsPerHost  = 1
	DefaultNICGbps      = 100
	DefaultDeviceMiB    = 128
	// DefaultPDUSpan is how many adjacent racks share one power
	// distribution unit (a PDU never spans rows).
	DefaultPDUSpan = 2
)

// ErrInvalid wraps every construction-time validation failure.
var ErrInvalid = errors.New("topo: invalid topology")

// Link is one edge of the topology: a one-way latency (including the
// cable run toward the parent switch) and the bandwidth one flow can
// draw through the edge. Bandwidth 0 means unconstrained.
type Link struct {
	Latency   sim.Duration
	Bandwidth mem.GBps
}

// RackSpec is one rack's hardware: hosts (host 0 is the orchestrator
// home; the rest contribute pooled devices), pooled NICs per device
// host, NIC line rate, and CXL media per MHD. Zero fields take the
// package defaults at build time.
type RackSpec struct {
	// Hosts per rack, including the orchestrator home host.
	Hosts int
	// NICsPerHost is pooled NICs per device host.
	NICsPerHost int
	// NICGbps is the pooled NIC line rate in Gbps.
	NICGbps float64
	// DeviceMiB is CXL media bytes per MHD, in MiB.
	DeviceMiB int
}

func (s RackSpec) withDefaults() RackSpec {
	if s.Hosts <= 0 {
		s.Hosts = DefaultHostsPerRack
	}
	if s.NICsPerHost <= 0 {
		s.NICsPerHost = DefaultNICsPerHost
	}
	if s.NICGbps <= 0 {
		s.NICGbps = DefaultNICGbps
	}
	if s.DeviceMiB <= 0 {
		s.DeviceMiB = DefaultDeviceMiB
	}
	return s
}

func (s RackSpec) validate() error {
	switch {
	case s.Hosts < 2 || s.Hosts > 256:
		return fmt.Errorf("%w: rack needs 2..256 hosts, got %d", ErrInvalid, s.Hosts)
	case s.NICsPerHost > 16:
		return fmt.Errorf("%w: NICsPerHost %d > 16", ErrInvalid, s.NICsPerHost)
	case s.NICGbps > 1600:
		return fmt.Errorf("%w: NIC rate %g Gbps > 1600", ErrInvalid, s.NICGbps)
	case s.DeviceMiB > 16384:
		return fmt.Errorf("%w: device size %d MiB > 16384", ErrInvalid, s.DeviceMiB)
	}
	return nil
}

// Devices is the rack's pooled device count: every host but the
// orchestrator home contributes NICsPerHost NICs.
func (s RackSpec) Devices() int { return (s.Hosts - 1) * s.NICsPerHost }

// NICRate is the line rate as bytes-per-nanosecond bandwidth.
func (s RackSpec) NICRate() mem.GBps { return mem.GBps(s.NICGbps / 8) }

// CapacityGbps is the rack's aggregate pooled line rate.
func (s RackSpec) CapacityGbps() float64 { return float64(s.Devices()) * s.NICGbps }

// Kind is a domain's level in the tree.
type Kind int

// The four levels, root to leaf.
const (
	KindRoot Kind = iota
	KindRow
	KindRack
	KindHost
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRoot:
		return "cluster"
	case KindRow:
		return "row"
	case KindRack:
		return "rack"
	case KindHost:
		return "host"
	default:
		return "unknown"
	}
}

// Domain is one node of the topology tree. Domains are built by the
// constructors and immutable afterwards.
type Domain struct {
	Kind Kind
	Name string
	// Uplink is the edge to the parent (zero for the root). Its latency
	// includes this domain's own switch traversal plus the cable run.
	Uplink Link
	// Forward is the switching latency a path pays when it transits
	// through this domain (enters from one side, leaves by another).
	Forward sim.Duration
	// Spec is the hardware description (racks only), normalized.
	Spec RackSpec

	parent   *Domain
	children []*Domain
	depth    int
	rowIdx   int // global row index; -1 for non-rows
}

// Path is the aggregate cost of the tree walk between two domains:
// link count, one-way latency (links plus transit switch forwards),
// and the bottleneck bandwidth across the links crossed. The zero Path
// is a node-local "path" (same domain): zero hops, zero latency,
// unconstrained bandwidth.
type Path struct {
	Hops      int
	Latency   sim.Duration
	Bandwidth mem.GBps
}

// RTT is the round-trip latency of the path.
func (p Path) RTT() sim.Duration { return 2 * p.Latency }

// String renders "Nhop lat / bw".
func (p Path) String() string {
	if p.Bandwidth <= 0 {
		return fmt.Sprintf("%dhop %v", p.Hops, p.Latency)
	}
	return fmt.Sprintf("%dhop %v / %.1f GB/s", p.Hops, p.Latency, float64(p.Bandwidth))
}

// Links parameterizes the default edge shapes of a topology. Zero
// fields take defaults derived from netsim's switch constants — the
// same derivation the old cluster.DefaultFabric used, so the default
// rack-to-rack path inside one row aggregates to exactly the previous
// inter-rack spine tier.
type Links struct {
	// HostUplink connects a host to its rack's ToR: one cable run, at
	// the rack's NIC rate (per-rack default).
	HostUplink Link
	// RackUplink connects a rack to its row spine: one ToR traversal
	// plus the cable run, at 4x the rack's NIC rate (bundled uplinks).
	RackUplink Link
	// RowUplink connects a row to the core: a spine traversal plus two
	// longer cable runs, at 100 GB/s (8x bundled).
	RowUplink Link
	// RowForward is the spine's transit switching latency.
	RowForward sim.Duration
	// RootForward is the core tier's transit switching latency.
	RootForward sim.Duration
}

// hop is one switch traversal: cable + PHY propagation plus cut-through
// forwarding (1050 ns with netsim defaults).
func hop() sim.Duration { return netsim.DefaultPropagation + netsim.DefaultForwardLatency }

func (l Links) withDefaults() Links {
	if l.RowUplink == (Link{}) {
		l.RowUplink = Link{Latency: hop() + 2*netsim.DefaultPropagation, Bandwidth: 100}
	}
	if l.RowForward <= 0 {
		l.RowForward = hop()
	}
	if l.RootForward <= 0 {
		l.RootForward = hop()
	}
	return l
}

// rackUplink resolves the per-rack uplink: explicit override, else the
// default shape scaled to the rack's NIC rate.
func (l Links) rackUplink(spec RackSpec) Link {
	if l.RackUplink != (Link{}) {
		return l.RackUplink
	}
	return Link{Latency: hop() + netsim.DefaultPropagation, Bandwidth: 4 * spec.NICRate()}
}

// hostUplink resolves the per-host uplink analogously.
func (l Links) hostUplink(spec RackSpec) Link {
	if l.HostUplink != (Link{}) {
		return l.HostUplink
	}
	return Link{Latency: netsim.DefaultPropagation, Bandwidth: spec.NICRate()}
}

// Topology is an immutable fleet description: the domain tree plus
// index-order access to rows and racks, and the power/cooling
// failure-domain overlay mapped onto that tree: PDUs group adjacent
// racks within a row, CRACs map one-to-one onto rows.
type Topology struct {
	root  *Domain
	rows  []*Domain
	racks []*Domain

	// Power/cooling overlay: pdus[i] lists the rack indexes sharing
	// PDU i; pduOf inverts the mapping. Built for DefaultPDUSpan at
	// construction; WithPDUSpan rebuilds the overlay.
	pduSpan int
	pdus    [][]int
	pduOf   []int
}

// buildPDUs groups racks into power domains: span adjacent racks per
// PDU, chunked within each row so a PDU never crosses a row boundary
// (it hangs off that row's power bus). The last PDU of a row may hold
// fewer racks.
func (t *Topology) buildPDUs(span int) {
	t.pduSpan = span
	t.pdus = nil
	t.pduOf = make([]int, len(t.racks))
	for ri := range t.rows {
		n := 0
		for i := range t.racks {
			if t.RowOf(i) != ri {
				continue
			}
			if n%span == 0 {
				t.pdus = append(t.pdus, nil)
			}
			p := len(t.pdus) - 1
			t.pdus[p] = append(t.pdus[p], i)
			t.pduOf[i] = p
			n++
		}
	}
}

// New builds and validates a topology from per-row rack specs (row
// order, then rack order within the row) with default link shapes.
func New(rows [][]RackSpec) (*Topology, error) { return NewWithLinks(rows, Links{}) }

// NewWithLinks is New with explicit edge shapes (zero fields default).
func NewWithLinks(rowSpecs [][]RackSpec, links Links) (*Topology, error) {
	if len(rowSpecs) == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrInvalid)
	}
	links = links.withDefaults()
	t := &Topology{root: &Domain{
		Kind: KindRoot, Name: "cluster", Forward: links.RootForward,
		rowIdx: -1,
	}}
	for ri, specs := range rowSpecs {
		if len(specs) == 0 {
			return nil, fmt.Errorf("%w: row %d has no racks", ErrInvalid, ri)
		}
		row := &Domain{
			Kind: KindRow, Name: fmt.Sprintf("row%d", ri),
			Uplink: links.RowUplink, Forward: links.RowForward,
			parent: t.root, depth: 1, rowIdx: ri,
		}
		t.root.children = append(t.root.children, row)
		t.rows = append(t.rows, row)
		for _, spec := range specs {
			spec = spec.withDefaults()
			if err := spec.validate(); err != nil {
				return nil, err
			}
			rack := &Domain{
				Kind: KindRack, Name: fmt.Sprintf("rack%d", len(t.racks)),
				Uplink:  links.rackUplink(spec),
				Forward: netsim.DefaultForwardLatency,
				Spec:    spec,
				parent:  row, depth: 2, rowIdx: -1,
			}
			row.children = append(row.children, rack)
			t.racks = append(t.racks, rack)
			for h := 0; h < spec.Hosts; h++ {
				host := &Domain{
					Kind: KindHost, Name: fmt.Sprintf("%s-host%d", rack.Name, h),
					Uplink: links.hostUplink(spec),
					parent: rack, depth: 3, rowIdx: -1,
				}
				rack.children = append(rack.children, host)
			}
		}
	}
	t.buildPDUs(DefaultPDUSpan)
	return t, nil
}

// Uniform builds a single row of identical racks.
func Uniform(racks int, spec RackSpec) (*Topology, error) {
	if racks < 1 {
		return nil, fmt.Errorf("%w: need at least one rack, got %d", ErrInvalid, racks)
	}
	specs := make([]RackSpec, racks)
	for i := range specs {
		specs[i] = spec
	}
	return New([][]RackSpec{specs})
}

// MultiRow builds rows x racksPerRow identical racks.
func MultiRow(rows, racksPerRow int, spec RackSpec) (*Topology, error) {
	if rows < 1 || racksPerRow < 1 {
		return nil, fmt.Errorf("%w: need >=1 rows of >=1 racks, got %dx%d", ErrInvalid, rows, racksPerRow)
	}
	rowSpecs := make([][]RackSpec, rows)
	for r := range rowSpecs {
		rowSpecs[r] = make([]RackSpec, racksPerRow)
		for i := range rowSpecs[r] {
			rowSpecs[r][i] = spec
		}
	}
	return New(rowSpecs)
}

// Default is the legacy fleet shape: one row of four identical racks.
func Default() *Topology {
	t, err := Uniform(4, RackSpec{})
	if err != nil {
		panic(err) // static shape; cannot fail
	}
	return t
}

// HetProfiles lists the heterogeneity profiles Preset accepts. "none"
// keeps every rack identical; the others alternate a second spec onto
// odd racks: "nic" runs 40 Gbps NICs, "devices" adds a third device
// host, "mixed" does both.
func HetProfiles() []string { return []string{"none", "nic", "devices", "mixed"} }

// hetSpec returns the odd-rack spec for a profile.
func hetSpec(profile string) (RackSpec, error) {
	switch profile {
	case "", "none":
		return RackSpec{}, nil
	case "nic":
		return RackSpec{NICGbps: 40}, nil
	case "devices":
		return RackSpec{Hosts: 4}, nil
	case "mixed":
		return RackSpec{Hosts: 4, NICGbps: 40}, nil
	default:
		return RackSpec{}, fmt.Errorf("%w: unknown heterogeneity profile %q (want %s)",
			ErrInvalid, profile, strings.Join(HetProfiles(), "|"))
	}
}

// Preset builds a topology from the CLI parameter surface: racks total
// racks split contiguously across rows (the first racks%rows rows take
// one extra), with the heterogeneity profile applied to odd racks.
func Preset(racks, rows int, het string) (*Topology, error) {
	if racks < 1 {
		return nil, fmt.Errorf("%w: need at least one rack, got %d", ErrInvalid, racks)
	}
	if rows < 1 {
		rows = 1
	}
	if rows > racks {
		return nil, fmt.Errorf("%w: %d rows exceed %d racks", ErrInvalid, rows, racks)
	}
	odd, err := hetSpec(het)
	if err != nil {
		return nil, err
	}
	specs := make([]RackSpec, racks)
	for i := 1; i < racks; i += 2 {
		specs[i] = odd
	}
	per, extra := racks/rows, racks%rows
	rowSpecs := make([][]RackSpec, rows)
	next := 0
	for r := range rowSpecs {
		n := per
		if r < extra {
			n++
		}
		rowSpecs[r] = specs[next : next+n]
		next += n
	}
	return New(rowSpecs)
}

// Root returns the tree root.
func (t *Topology) Root() *Domain { return t.root }

// Rows returns the row domains in index order.
func (t *Topology) Rows() []*Domain { return t.rows }

// Racks returns the rack domains in global index order.
func (t *Topology) Racks() []*Domain { return t.racks }

// RackCount returns the fleet's rack count.
func (t *Topology) RackCount() int { return len(t.racks) }

// RowCount returns the fleet's row count.
func (t *Topology) RowCount() int { return len(t.rows) }

// Rack returns the rack domain at global index i.
func (t *Topology) Rack(i int) *Domain { return t.racks[i] }

// RowOf returns the row index housing rack i.
func (t *Topology) RowOf(i int) int { return t.racks[i].parent.rowIdx }

// WithPDUSpan returns a topology sharing this one's (immutable) domain
// tree but regrouping the power overlay to span adjacent racks per
// PDU. Span 1 gives every rack its own PDU (power faults degenerate to
// rack faults); spans beyond a row's width put the whole row on one
// PDU.
func (t *Topology) WithPDUSpan(span int) (*Topology, error) {
	if span < 1 {
		return nil, fmt.Errorf("%w: PDU span %d < 1", ErrInvalid, span)
	}
	out := &Topology{root: t.root, rows: t.rows, racks: t.racks}
	out.buildPDUs(span)
	return out, nil
}

// PDUSpan returns the configured racks-per-PDU grouping.
func (t *Topology) PDUSpan() int { return t.pduSpan }

// PDUCount returns how many power domains the fleet has.
func (t *Topology) PDUCount() int { return len(t.pdus) }

// PDURacks returns the rack indexes sharing PDU p, index order.
func (t *Topology) PDURacks(p int) []int {
	out := make([]int, len(t.pdus[p]))
	copy(out, t.pdus[p])
	return out
}

// PDUOf returns the power domain housing rack i.
func (t *Topology) PDUOf(i int) int { return t.pduOf[i] }

// CRACCount returns how many cooling domains the fleet has. A CRAC
// serves exactly one row, so cooling domains map one-to-one onto rows.
func (t *Topology) CRACCount() int { return len(t.rows) }

// SameRow reports whether racks i and j share a row.
func (t *Topology) SameRow(i, j int) bool { return t.racks[i].parent == t.racks[j].parent }

// IntraRack is rack i's within-rack tier for reporting: one ToR
// traversal at the rack's NIC rate. (Inside a rack the pod's event
// simulation is the source of truth; this is the analytic view.)
func (t *Topology) IntraRack(i int) Link {
	return Link{Latency: hop(), Bandwidth: t.racks[i].Spec.NICRate()}
}

// Path aggregates the tree walk between two domains: every uplink
// crossed contributes a hop, its latency, and its bandwidth to the
// bottleneck min; every domain transited (strictly between the
// endpoints, including the meeting point when it is neither endpoint)
// contributes its Forward switching latency.
func (t *Topology) Path(a, b *Domain) Path {
	if a == b {
		return Path{}
	}
	var p Path
	cross := func(l Link) {
		p.Hops++
		p.Latency += l.Latency
		if l.Bandwidth > 0 && (p.Bandwidth == 0 || l.Bandwidth < p.Bandwidth) {
			p.Bandwidth = l.Bandwidth
		}
	}
	// Climb the deeper side to equal depth, then both sides together;
	// domains climbed past (ancestors below the meeting point) are
	// transits.
	x, y := a, b
	for x.depth > y.depth {
		cross(x.Uplink)
		x = x.parent
		if x.depth > y.depth || x != y {
			p.Latency += x.Forward
		}
	}
	for y.depth > x.depth {
		cross(y.Uplink)
		y = y.parent
		if y.depth > x.depth || y != x {
			p.Latency += y.Forward
		}
	}
	for x != y {
		cross(x.Uplink)
		cross(y.Uplink)
		x, y = x.parent, y.parent
		if x != y {
			p.Latency += x.Forward + y.Forward
		} else {
			p.Latency += x.Forward // the meeting point transits once
		}
	}
	return p
}

// RackPath is Path between racks i and j.
func (t *Topology) RackPath(i, j int) Path { return t.Path(t.racks[i], t.racks[j]) }

// String renders the fleet shape, e.g. "8 racks in 2 rows".
func (t *Topology) String() string {
	if len(t.rows) == 1 {
		return fmt.Sprintf("%d racks in 1 row", len(t.racks))
	}
	return fmt.Sprintf("%d racks in %d rows", len(t.racks), len(t.rows))
}
