// Package mem models byte-addressable physical memory with timing.
//
// A Region is a contiguous range of simulated physical memory backed by
// real bytes, with an analytic latency model: an idle (unloaded)
// load-to-use latency plus a bandwidth-limited transfer term with
// single-server queueing. DDR5 DIMMs, CXL device media, and MMIO windows
// are all Regions with different parameters; packages cxl and pcie
// compose them into pools and devices.
//
// Timing and data are deliberately coupled: every read and write both
// moves bytes and returns the simulated latency the access took, so
// higher layers cannot accidentally account time without moving data or
// vice versa. The one exception is Region.Account, the timing half of an
// access, for a caller that has already moved the bytes through the
// region's Store.
//
// A Region's bytes live in a Store: sparse 64 KiB chunks holding the
// bytes of n equal-size member regions interleaved at g bytes, so byte
// off of member m sits at store offset ((off/g)*n+m)*g + off%g. A
// standalone Region is the only member of its own store. A CXL pod
// stripes its devices' media into one store in the order the CPU
// interleaves the pool, so a pool access of any length is one contiguous
// copy in the store (see cxl.Interleave).
package mem

import (
	"errors"
	"fmt"
	"sort"

	"cxlpool/internal/sim"
)

// Address is a simulated physical address.
type Address uint64

// CachelineSize is the coherence and transfer granularity, 64 bytes on
// all platforms the paper considers.
const CachelineSize = 64

// AlignDown rounds an address down to its cacheline base.
func AlignDown(a Address) Address { return a &^ (CachelineSize - 1) }

// AlignUp rounds an address up to the next cacheline boundary.
func AlignUp(a Address) Address {
	return (a + CachelineSize - 1) &^ (CachelineSize - 1)
}

// Errors returned by memory operations.
var (
	ErrOutOfRange = errors.New("mem: access out of region range")
	ErrNoSpace    = errors.New("mem: allocation failed: no space")
	ErrBadFree    = errors.New("mem: free of unallocated or misaligned block")
)

// GBps expresses bandwidth in bytes per simulated second.
type GBps float64

// Bytes returns how many bytes can move in d at this bandwidth.
func (b GBps) Bytes(d sim.Duration) int64 {
	return int64(float64(b) * 1e9 * float64(d) / 1e9)
}

// TransferTime returns the serialization time for n bytes.
func (b GBps) TransferTime(n int) sim.Duration {
	if b <= 0 || n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / (float64(b) * 1e9) * 1e9)
}

// Timing parameterizes a Region's latency model.
type Timing struct {
	// ReadLatency is the idle load-to-use latency of a cacheline read.
	ReadLatency sim.Duration
	// WriteLatency is the idle completion latency of a cacheline write.
	WriteLatency sim.Duration
	// Bandwidth is the sustained transfer bandwidth of the region
	// (media + channel). Zero means infinite.
	Bandwidth GBps
	// Jitter, if nonzero, adds a uniformly distributed extra delay in
	// [0, Jitter) per access, modeling controller scheduling noise.
	Jitter sim.Duration
}

// chunkShift sizes the lazily-allocated backing chunks (64 KiB). Real
// experiments routinely create multi-gigabyte pools and touch a few
// hundred kilobytes of them; eager backing arrays were ~40% of all
// bytes allocated by the benchmark suite.
const chunkShift = 16

const chunkBytes = 1 << chunkShift

// Store is the sparse backing of n equal-size member regions whose bytes
// are interleaved at a granularity of g bytes: byte off of member m sits
// at store offset ((off/g)*n+m)*g + off%g. With n == 1 that is the
// identity, which is how a standalone Region is stored.
//
// A Store is not safe for concurrent use.
type Store struct {
	members    int
	memberSize int
	gran       int
	size       int
	// chunks is the chunk index: chunk i covers store bytes
	// [i<<chunkShift, (i+1)<<chunkShift) and is allocated on first
	// write. The index itself is allocated on the first write to the
	// store, so a store nobody writes costs one small struct. Unwritten
	// ranges read as zero, exactly like an eager zero-filled array.
	chunks [][]byte
}

// NewStore returns an empty store for members regions of memberSize
// bytes each, interleaved at granularity bytes. memberSize must be a
// multiple of granularity, so every member holds whole stripes.
func NewStore(members, memberSize, granularity int) *Store {
	if members <= 0 || memberSize <= 0 || granularity <= 0 || memberSize%granularity != 0 {
		panic(fmt.Sprintf("mem: store of %d members of %d bytes at granularity %d",
			members, memberSize, granularity))
	}
	return &Store{members: members, memberSize: memberSize, gran: granularity, size: members * memberSize}
}

// Members returns the number of member regions.
func (s *Store) Members() int { return s.members }

// Granularity returns the interleave granularity in bytes.
func (s *Store) Granularity() int { return s.gran }

// Size returns the store's total size, all members together.
func (s *Store) Size() int { return s.size }

// Region returns member m of the store as a Region named name at base.
// Each member is a Region of its own: its own timing, jitter source,
// bandwidth queue and counters over the shared bytes.
func (s *Store) Region(m int, name string, base Address, t Timing, rng *sim.Rand) *Region {
	if m < 0 || m >= s.members {
		panic(fmt.Sprintf("mem: region %q is member %d of a %d-member store", name, m, s.members))
	}
	return &Region{name: name, base: base, size: s.memberSize, store: s, member: m, timing: t, rng: rng}
}

// check panics unless [off, off+n) lies inside the store.
func (s *Store) check(off, n int) {
	if off < 0 || n < 0 || off+n > s.size {
		panic(fmt.Sprintf("mem: store access [%d,+%d) outside [0,%d)", off, n, s.size))
	}
}

// chunkLen returns the byte length of chunk ci (the last chunk may be
// short).
func (s *Store) chunkLen(ci int) int {
	if n := s.size - ci<<chunkShift; n < chunkBytes {
		return n
	}
	return chunkBytes
}

// CopyOut copies store bytes [off, off+len(buf)) into buf, reading zeros
// where nothing was written. It panics if the range leaves the store.
func (s *Store) CopyOut(off int, buf []byte) {
	s.check(off, len(buf))
	for len(buf) > 0 {
		ci, co := off>>chunkShift, off&(chunkBytes-1)
		n := min(chunkBytes-co, len(buf))
		if s.chunks != nil && s.chunks[ci] != nil {
			copy(buf[:n], s.chunks[ci][co:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		off += n
	}
}

// CopyIn copies buf into the store at off, materializing chunks on first
// touch. It panics if the range leaves the store.
func (s *Store) CopyIn(off int, buf []byte) {
	s.check(off, len(buf))
	if s.chunks == nil && len(buf) > 0 {
		s.chunks = make([][]byte, (s.size+chunkBytes-1)>>chunkShift)
	}
	for len(buf) > 0 {
		ci, co := off>>chunkShift, off&(chunkBytes-1)
		n := min(chunkBytes-co, len(buf))
		c := s.chunks[ci]
		if c == nil {
			c = make([]byte, s.chunkLen(ci))
			s.chunks[ci] = c
		}
		copy(c[co:], buf[:n])
		buf = buf[n:]
		off += n
	}
}

// Zero clears store bytes [off, off+n). A chunk that was never written
// already reads as zero, so only chunks that exist are touched: zeroing
// media nobody wrote allocates nothing. It panics if the range leaves
// the store.
func (s *Store) Zero(off, n int) {
	s.check(off, n)
	if s.chunks == nil {
		return
	}
	for n > 0 {
		ci, co := off>>chunkShift, off&(chunkBytes-1)
		m := min(chunkBytes-co, n)
		if c := s.chunks[ci]; c != nil {
			clear(c[co : co+m])
		}
		off += m
		n -= m
	}
}

// Region is a contiguous simulated memory range with timing.
//
// A Region is not safe for concurrent use; the discrete-event engine is
// single-threaded by design.
type Region struct {
	name string
	base Address
	size int
	// store holds the bytes; the region is member number member of it.
	store  *Store
	member int
	timing Timing
	rng    *sim.Rand

	// Bandwidth queueing is a fluid model: backlogBytes is the queue of
	// bytes already accepted but not yet drained at the channel
	// bandwidth as of lastDrain. A fluid queue (rather than a busy-until
	// pointer) is robust to the non-monotone access timestamps that a
	// discrete-event simulation legitimately produces when independent
	// agents (CPU workers running ahead, DMA engines at wire time) share
	// one memory channel.
	backlogBytes float64
	lastDrain    sim.Time

	// Stats.
	reads, writes   uint64
	bytesRead       uint64
	bytesWritten    uint64
	queueingDelayNs uint64
}

// NewRegion creates a region of size bytes at base with the given timing,
// as the only member of a store of its own. rng may be nil when
// Timing.Jitter is zero.
func NewRegion(name string, base Address, size int, t Timing, rng *sim.Rand) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("mem: region %q with non-positive size %d", name, size))
	}
	return NewStore(1, size, size).Region(0, name, base, t, rng)
}

// Store returns the store that holds the region's bytes and the region's
// member index in it.
func (r *Region) Store() (*Store, int) { return r.store, r.member }

// stripe maps region offset off to its store offset and returns how many
// of the next n bytes stay contiguous in the store from there.
func (r *Region) stripe(off, n int) (pos, k int) {
	s := r.store
	within := off % s.gran
	return ((off/s.gran)*s.members+r.member)*s.gran + within, min(s.gran-within, n)
}

// copyOut copies [off, off+len(buf)) of the region into buf.
func (r *Region) copyOut(off int, buf []byte) {
	for len(buf) > 0 {
		pos, k := r.stripe(off, len(buf))
		r.store.CopyOut(pos, buf[:k])
		buf = buf[k:]
		off += k
	}
}

// copyIn copies buf into the region at off.
func (r *Region) copyIn(off int, buf []byte) {
	for len(buf) > 0 {
		pos, k := r.stripe(off, len(buf))
		r.store.CopyIn(pos, buf[:k])
		buf = buf[k:]
		off += k
	}
}

// Base returns the first address of the region.
func (r *Region) Base() Address { return r.base }

// Size returns the region size in bytes.
func (r *Region) Size() int { return r.size }

// End returns one past the last address of the region.
func (r *Region) End() Address { return r.base + Address(r.size) }

// Contains reports whether [a, a+size) lies inside the region.
func (r *Region) Contains(a Address, size int) bool {
	return a >= r.base && size >= 0 && a+Address(size) <= r.End()
}

// Stats reports cumulative access counters.
//
//lint:allow testonly FuzzInterleaveStore compares media counters across the store and split paths
func (r *Region) Stats() (reads, writes, bytesRead, bytesWritten uint64) {
	return r.reads, r.writes, r.bytesRead, r.bytesWritten
}

// QueueingDelay returns the total time accesses spent waiting for the
// channel, an indicator of bandwidth saturation.
//
//lint:allow testonly FuzzInterleaveStore compares media queueing across the store and split paths
func (r *Region) QueueingDelay() sim.Duration {
	return sim.Duration(r.queueingDelayNs)
}

func (r *Region) jitter() sim.Duration {
	if r.timing.Jitter <= 0 || r.rng == nil {
		return 0
	}
	return sim.Duration(r.rng.Int63n(int64(r.timing.Jitter)))
}

// access computes the completion latency of a transfer of n bytes at
// simulated time now, advancing the fluid channel queue: the existing
// backlog drains at the channel bandwidth; whatever remains delays this
// access.
func (r *Region) access(now sim.Time, n int, idle sim.Duration) sim.Duration {
	if r.timing.Bandwidth <= 0 {
		return idle + r.jitter()
	}
	if now > r.lastDrain {
		drained := float64(r.timing.Bandwidth.Bytes(now - r.lastDrain))
		r.backlogBytes -= drained
		if r.backlogBytes < 0 {
			r.backlogBytes = 0
		}
		r.lastDrain = now
	}
	queue := r.timing.Bandwidth.TransferTime(int(r.backlogBytes))
	r.queueingDelayNs += uint64(queue)
	xfer := r.timing.Bandwidth.TransferTime(n)
	r.backlogBytes += float64(n)
	return queue + idle + xfer + r.jitter()
}

// Account is the timing half of an access of n bytes at simulated time
// now, without moving any data: it bumps the same counters and returns
// the same latency, jitter draw included, as a ReadAt (write false) or
// WriteAt (write true) of n bytes. It is for callers that move the
// bytes themselves through the region's Store.
func (r *Region) Account(now sim.Time, n int, write bool) sim.Duration {
	if write {
		r.writes++
		r.bytesWritten += uint64(n)
		return r.access(now, n, r.timing.WriteLatency)
	}
	r.reads++
	r.bytesRead += uint64(n)
	return r.access(now, n, r.timing.ReadLatency)
}

// ReadAt copies len(buf) bytes at address a into buf and returns the
// simulated latency of the access.
func (r *Region) ReadAt(now sim.Time, a Address, buf []byte) (sim.Duration, error) {
	if !r.Contains(a, len(buf)) {
		return 0, fmt.Errorf("%w: read [%#x,+%d) from %q [%#x,%#x)",
			ErrOutOfRange, uint64(a), len(buf), r.name, uint64(r.base), uint64(r.End()))
	}
	r.copyOut(int(a-r.base), buf)
	return r.Account(now, len(buf), false), nil
}

// WriteAt copies buf to address a and returns the simulated latency.
func (r *Region) WriteAt(now sim.Time, a Address, buf []byte) (sim.Duration, error) {
	if !r.Contains(a, len(buf)) {
		return 0, fmt.Errorf("%w: write [%#x,+%d) to %q [%#x,%#x)",
			ErrOutOfRange, uint64(a), len(buf), r.name, uint64(r.base), uint64(r.End()))
	}
	r.copyIn(int(a-r.base), buf)
	return r.Account(now, len(buf), true), nil
}

// Peek reads bytes without advancing timing. It is for assertions and
// debugging only; simulated datapaths must use ReadAt.
func (r *Region) Peek(a Address, buf []byte) error {
	if !r.Contains(a, len(buf)) {
		return ErrOutOfRange
	}
	r.copyOut(int(a-r.base), buf)
	return nil
}

// Poke writes bytes without advancing timing (test setup only).
func (r *Region) Poke(a Address, buf []byte) error {
	if !r.Contains(a, len(buf)) {
		return ErrOutOfRange
	}
	r.copyIn(int(a-r.base), buf)
	return nil
}

// Memory is the access interface shared by regions, address spaces, and
// composed paths (e.g. a CXL link in front of device media).
type Memory interface {
	ReadAt(now sim.Time, a Address, buf []byte) (sim.Duration, error)
	WriteAt(now sim.Time, a Address, buf []byte) (sim.Duration, error)
	Contains(a Address, size int) bool
}

var (
	_ Memory = (*Region)(nil)
	_ Memory = (*AddressSpace)(nil)
)

// AddressSpace routes accesses to a set of non-overlapping regions, like
// a host physical address map (local DRAM + CXL windows + MMIO).
type AddressSpace struct {
	regions []Memory
	bounds  []bound
}

type bound struct {
	base Address
	end  Address
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// Add maps a memory into the space. The range [base, end) is taken from
// the Bounded interface if implemented, otherwise from probing Contains.
// Regions must not overlap; Add returns an error on overlap.
func (s *AddressSpace) Add(m Memory, base Address, size int) error {
	end := base + Address(size)
	for _, b := range s.bounds {
		if base < b.end && b.base < end {
			return fmt.Errorf("mem: mapping [%#x,%#x) overlaps existing [%#x,%#x)",
				uint64(base), uint64(end), uint64(b.base), uint64(b.end))
		}
	}
	s.regions = append(s.regions, m)
	s.bounds = append(s.bounds, bound{base: base, end: end})
	// Keep sorted by base for binary search.
	idx := sort.Search(len(s.bounds)-1, func(i int) bool { return s.bounds[i].base > base })
	if idx < len(s.bounds)-1 {
		copy(s.bounds[idx+1:], s.bounds[idx:len(s.bounds)-1])
		s.bounds[idx] = bound{base: base, end: end}
		copy(s.regions[idx+1:], s.regions[idx:len(s.regions)-1])
		s.regions[idx] = m
	}
	return nil
}

// lookup finds the memory covering [a, a+size).
func (s *AddressSpace) lookup(a Address, size int) (Memory, bool) {
	idx := sort.Search(len(s.bounds), func(i int) bool { return s.bounds[i].end > a })
	if idx >= len(s.bounds) {
		return nil, false
	}
	b := s.bounds[idx]
	if a >= b.base && a+Address(size) <= b.end {
		return s.regions[idx], true
	}
	return nil, false
}

// Contains reports whether a single mapped memory covers [a, a+size).
func (s *AddressSpace) Contains(a Address, size int) bool {
	_, ok := s.lookup(a, size)
	return ok
}

// ReadAt routes the read to the covering memory. Accesses spanning two
// mappings are rejected: real DMA engines and CPUs split such transfers,
// and requiring the caller to split keeps timing attribution exact.
func (s *AddressSpace) ReadAt(now sim.Time, a Address, buf []byte) (sim.Duration, error) {
	m, ok := s.lookup(a, len(buf))
	if !ok {
		return 0, fmt.Errorf("%w: unmapped read [%#x,+%d)", ErrOutOfRange, uint64(a), len(buf))
	}
	return m.ReadAt(now, a, buf)
}

// WriteAt routes the write to the covering memory.
func (s *AddressSpace) WriteAt(now sim.Time, a Address, buf []byte) (sim.Duration, error) {
	m, ok := s.lookup(a, len(buf))
	if !ok {
		return 0, fmt.Errorf("%w: unmapped write [%#x,+%d)", ErrOutOfRange, uint64(a), len(buf))
	}
	return m.WriteAt(now, a, buf)
}
