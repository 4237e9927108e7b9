package cxl

import (
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Switch models a CXL 2.0 switch on the path between hosts and
// single-ported CXL memory controllers (§3). Every access through the
// switch pays SwitchTraversalLatency twice (CPU→switch→controller
// requires serialization/deserialization on each hop; the paper folds
// this into ">250 ns added" for ~500–600 ns total idle load-to-use),
// and all attached ports share the switch's lane capacity.
type Switch struct {
	name      string
	lanes     int
	usedLanes int
	// Aggregate crossbar bandwidth shared by all flows.
	fabric *Link
}

// NewSwitch creates a switch with the standard 128-lane capacity.
func NewSwitch(name string) *Switch {
	return &Switch{
		name:  name,
		lanes: SwitchLaneCount,
		fabric: NewLink(LinkConfig{Lanes: SwitchLaneCount, Gen: 5},
			0),
	}
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// FreeLanes returns unallocated lane capacity.
func (s *Switch) FreeLanes() int { return s.lanes - s.usedLanes }

// AttachPort reserves lanes for one downstream or upstream port.
func (s *Switch) AttachPort(cfg LinkConfig) error {
	if cfg.Lanes > s.FreeLanes() {
		return fmt.Errorf("cxl: switch %s out of lanes: want %d, have %d",
			s.name, cfg.Lanes, s.FreeLanes())
	}
	s.usedLanes += cfg.Lanes
	return nil
}

// SwitchedView wraps a PortView with a switch traversal: the topology is
// host ──cfg──> switch ──device link──> controller. It implements
// mem.Memory and is used by the E7/E9 experiments to contrast MHD pods
// with switched pods.
type SwitchedView struct {
	sw    *Switch
	inner *PortView
}

// Via routes an existing port view through a switch, reserving lanes for
// the host-side port.
func (s *Switch) Via(inner *PortView, hostSide LinkConfig) (*SwitchedView, error) {
	if err := s.AttachPort(hostSide); err != nil {
		return nil, err
	}
	return &SwitchedView{sw: s, inner: inner}, nil
}

// Contains reports whether the underlying media covers the range.
func (v *SwitchedView) Contains(a mem.Address, size int) bool {
	return v.inner.Contains(a, size)
}

// ReadAt adds two switch traversals (request and response each cross the
// switch once; each crossing serializes/deserializes) plus crossbar
// bandwidth sharing.
func (v *SwitchedView) ReadAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	const crossing = SwitchTraversalLatency / 2
	d := v.sw.fabric.sendTime(now, mem.CachelineSize) + crossing
	id, err := v.inner.ReadAt(now+d, a, buf)
	if err != nil {
		return 0, err
	}
	d += id
	d += v.sw.fabric.recvTime(now+d, len(buf)) + crossing
	return d, nil
}

// WriteAt adds one switch crossing for the posted write path.
func (v *SwitchedView) WriteAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	d := v.sw.fabric.sendTime(now, len(buf)) + SwitchTraversalLatency/2
	id, err := v.inner.WriteAt(now+d, a, buf)
	if err != nil {
		return 0, err
	}
	return d + id, nil
}

var _ mem.Memory = (*SwitchedView)(nil)

// Interleave stripes accesses across several memories at
// InterleaveGranularity (256 B), the mechanism CPUs use to aggregate
// bandwidth over multiple CXL links (§3: 64 lanes per socket interleaved
// for ~240 GB/s). The address range of all members must be identical in
// size; member i owns stripe s where s%len(members)==i.
//
// An access spanning stripe boundaries is split; the reported latency is
// the maximum of the parts (they proceed in parallel on distinct links),
// which is how hardware interleaving behaves for a single demand access
// stream.
//
// A pod's interleave takes a faster path to the same result. The pod
// stores its devices' media in pool order (one mem.Store striped at
// 256 B, see NewPod), so the bytes of an access are one contiguous copy
// in the store, and the walk over the stripes only does timing: per
// stripe, the member link's fluid queues and the media's Account, in
// the same order, with the same float operations, RNG draws and counters
// as the per-member split. Any other interleave, and any access that
// touches a detached port or a failed device, takes the split, so every
// error surfaces exactly as before.
type Interleave struct {
	members []mem.Memory
	// memberBase[i] is where member i's slice of the range begins in its
	// own address map; member i must cover [memberBase[i],
	// memberBase[i]+size/len(members)).
	memberBase []mem.Address
	base       mem.Address
	size       int

	// store holds the media of views, members 0..n-1 in this order,
	// striped at InterleaveGranularity: byte off of the range sits at
	// store offset off. Both are nil unless every member is a PortView
	// laid out so.
	store *mem.Store
	views []*PortView
}

// NewInterleave builds an interleave set over [base, base+size) backed by
// the given members. Members see the same global addresses; they are
// expected to be PortViews of MHDs that each cover the whole range (the
// usual "one MHD, many links" layout) or distinct devices mapped modulo
// stripes. For distinct-device layouts use NewInterleaveAt instead.
func NewInterleave(base mem.Address, size int, members ...mem.Memory) *Interleave {
	if len(members) == 0 {
		panic("cxl: interleave with no members")
	}
	bases := make([]mem.Address, len(members))
	for i := range bases {
		bases[i] = base
	}
	return newInterleave(base, size, members, bases)
}

// NewInterleaveAt builds an interleave whose members sit at distinct
// bases in the global map (one MHD per base), as in a multi-device pod.
func NewInterleaveAt(base mem.Address, size int, members []mem.Memory, memberBases []mem.Address) *Interleave {
	if len(members) == 0 || len(members) != len(memberBases) {
		panic("cxl: interleave members/bases mismatch")
	}
	return newInterleave(base, size, members, memberBases)
}

func newInterleave(base mem.Address, size int, members []mem.Memory, memberBases []mem.Address) *Interleave {
	iv := &Interleave{members: members, memberBase: memberBases, base: base, size: size}
	views := make([]*PortView, len(members))
	var store *mem.Store
	for i, m := range members {
		v, ok := m.(*PortView)
		if !ok {
			return iv
		}
		s, idx := v.dev.media.Store()
		if i == 0 {
			store = s
		}
		if s != store || idx != i || v.dev.media.Base() != memberBases[i] {
			return iv
		}
		views[i] = v
	}
	if store.Members() != len(members) || store.Granularity() != InterleaveGranularity || size > store.Size() {
		return iv
	}
	iv.store, iv.views = store, views
	return iv
}

// Contains reports whether the interleave range covers [a, a+size).
func (iv *Interleave) Contains(a mem.Address, size int) bool {
	return a >= iv.base && a+mem.Address(size) <= iv.base+mem.Address(iv.size)
}

// translate maps a global pool address to (member, member-local
// address): stripe s lives on member s%n at that member's stripe s/n.
// This is the address math a CPU's interleave decoder performs; each
// member's media only needs capacity size/n.
func (iv *Interleave) translate(a mem.Address) (mem.Memory, mem.Address) {
	off := a - iv.base
	stripe := off / InterleaveGranularity
	within := off % InterleaveGranularity
	n := mem.Address(len(iv.members))
	idx := int(stripe % n)
	local := iv.memberBase[idx] + (stripe/n)*InterleaveGranularity + within
	return iv.members[idx], local
}

// split calls f for each stripe-aligned chunk of [a, a+len(buf)),
// translated to member-local addresses.
func (iv *Interleave) split(a mem.Address, buf []byte, f func(m mem.Memory, a mem.Address, part []byte) (sim.Duration, error)) (sim.Duration, error) {
	var maxD sim.Duration
	off := 0
	for off < len(buf) {
		cur := a + mem.Address(off)
		stripeEnd := (cur/InterleaveGranularity + 1) * InterleaveGranularity
		n := len(buf) - off
		if int(stripeEnd-cur) < n {
			n = int(stripeEnd - cur)
		}
		m, local := iv.translate(cur)
		d, err := f(m, local, buf[off:off+n])
		if err != nil {
			return 0, err
		}
		if d > maxD {
			maxD = d
		}
		off += n
	}
	return maxD, nil
}

// stored reports whether an access of n bytes at a can take the store
// path: the interleave is store-backed and every member the access
// touches is attached and working.
func (iv *Interleave) stored(a mem.Address, n int) bool {
	if iv.store == nil {
		return false
	}
	off := int(a - iv.base)
	first := off / InterleaveGranularity
	touched := min((off+n-1)/InterleaveGranularity-first+1, len(iv.views))
	for i, m := 0, first%len(iv.views); i < touched; i++ {
		if v := iv.views[m]; v.detached || v.dev.failed {
			return false
		}
		if m++; m == len(iv.views) {
			m = 0
		}
	}
	return true
}

// stripeTimes is the timing of an n-byte access at a on the store path:
// each stripe is timed exactly as PortView.ReadAt or WriteAt times it,
// in stripe order, and the slowest stripe sets the latency.
func (iv *Interleave) stripeTimes(now sim.Time, a mem.Address, n int, write bool) sim.Duration {
	off := int(a - iv.base)
	m := off / InterleaveGranularity % len(iv.views)
	k := InterleaveGranularity - off%InterleaveGranularity
	var maxD sim.Duration
	for n > 0 {
		k = min(k, n)
		v := iv.views[m]
		var d sim.Duration
		if write {
			d = v.link.sendTime(now, k)
			d += v.dev.media.Account(now+d, k, true)
		} else {
			d = v.link.sendTime(now, mem.CachelineSize)
			d += v.dev.media.Account(now+d, k, false)
			d += v.link.recvTime(now+d, k)
		}
		if d > maxD {
			maxD = d
		}
		n -= k
		k = InterleaveGranularity
		if m++; m == len(iv.views) {
			m = 0
		}
	}
	return maxD
}

// ReadAt reads, striping across members; parallel parts overlap so the
// returned latency is the slowest part.
func (iv *Interleave) ReadAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if !iv.Contains(a, len(buf)) {
		return 0, fmt.Errorf("%w: interleave read [%#x,+%d)", mem.ErrOutOfRange, uint64(a), len(buf))
	}
	if iv.stored(a, len(buf)) {
		iv.store.CopyOut(int(a-iv.base), buf)
		return iv.stripeTimes(now, a, len(buf), false), nil
	}
	return iv.split(a, buf, func(m mem.Memory, a mem.Address, part []byte) (sim.Duration, error) {
		return m.ReadAt(now, a, part)
	})
}

// WriteAt writes, striping across members.
func (iv *Interleave) WriteAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if !iv.Contains(a, len(buf)) {
		return 0, fmt.Errorf("%w: interleave write [%#x,+%d)", mem.ErrOutOfRange, uint64(a), len(buf))
	}
	if iv.stored(a, len(buf)) {
		iv.store.CopyIn(int(a-iv.base), buf)
		return iv.stripeTimes(now, a, len(buf), true), nil
	}
	return iv.split(a, buf, func(m mem.Memory, a mem.Address, part []byte) (sim.Duration, error) {
		return m.WriteAt(now, a, part)
	})
}

var _ mem.Memory = (*Interleave)(nil)
