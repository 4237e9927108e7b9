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
// vice versa.
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

// Lines returns the number of cachelines touched by an access of size
// bytes at address a.
func Lines(a Address, size int) int {
	if size <= 0 {
		return 0
	}
	first := AlignDown(a)
	last := AlignDown(a + Address(size) - 1)
	return int((last-first)/CachelineSize) + 1
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

// Region is a contiguous simulated memory range with timing.
//
// A Region is not safe for concurrent use; the discrete-event engine is
// single-threaded by design.
type Region struct {
	name string
	base Address
	size int
	// chunks is the sparse backing store: chunk i covers bytes
	// [i<<chunkShift, (i+1)<<chunkShift) of the region and is allocated
	// on first write. Unwritten ranges read as zero, exactly like the
	// eager zero-filled array they replace.
	chunks [][]byte
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

// NewRegion creates a region of size bytes at base with the given timing.
// rng may be nil when Timing.Jitter is zero.
func NewRegion(name string, base Address, size int, t Timing, rng *sim.Rand) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("mem: region %q with non-positive size %d", name, size))
	}
	return &Region{
		name:   name,
		base:   base,
		size:   size,
		chunks: make([][]byte, (size+chunkBytes-1)>>chunkShift),
		timing: t,
		rng:    rng,
	}
}

// chunkLen returns the byte length of chunk ci (the last chunk may be
// short).
func (r *Region) chunkLen(ci int) int {
	if n := r.size - ci<<chunkShift; n < chunkBytes {
		return n
	}
	return chunkBytes
}

// copyOut copies [off, off+len(buf)) of the region into buf, reading
// zeros from unallocated chunks.
func (r *Region) copyOut(off int, buf []byte) {
	for len(buf) > 0 {
		ci, co := off>>chunkShift, off&(chunkBytes-1)
		n := chunkBytes - co
		if n > len(buf) {
			n = len(buf)
		}
		if c := r.chunks[ci]; c != nil {
			copy(buf[:n], c[co:])
		} else {
			for i := range buf[:n] {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		off += n
	}
}

// copyIn copies buf into the region at off, materializing chunks on
// first touch.
func (r *Region) copyIn(off int, buf []byte) {
	for len(buf) > 0 {
		ci, co := off>>chunkShift, off&(chunkBytes-1)
		n := chunkBytes - co
		if n > len(buf) {
			n = len(buf)
		}
		c := r.chunks[ci]
		if c == nil {
			c = make([]byte, r.chunkLen(ci))
			r.chunks[ci] = c
		}
		copy(c[co:], buf[:n])
		buf = buf[n:]
		off += n
	}
}

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

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

// Timing returns the region's timing parameters.
func (r *Region) Timing() Timing { return r.timing }

// SetTiming replaces the timing parameters (used by ablations).
func (r *Region) SetTiming(t Timing) { r.timing = t }

// Stats reports cumulative access counters.
func (r *Region) Stats() (reads, writes, bytesRead, bytesWritten uint64) {
	return r.reads, r.writes, r.bytesRead, r.bytesWritten
}

// QueueingDelay returns the total time accesses spent waiting for the
// channel, an indicator of bandwidth saturation.
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

// ReadAt copies len(buf) bytes at address a into buf and returns the
// simulated latency of the access.
func (r *Region) ReadAt(now sim.Time, a Address, buf []byte) (sim.Duration, error) {
	if !r.Contains(a, len(buf)) {
		return 0, fmt.Errorf("%w: read [%#x,+%d) from %q [%#x,%#x)",
			ErrOutOfRange, uint64(a), len(buf), r.name, uint64(r.base), uint64(r.End()))
	}
	r.copyOut(int(a-r.base), buf)
	r.reads++
	r.bytesRead += uint64(len(buf))
	return r.access(now, len(buf), r.timing.ReadLatency), nil
}

// WriteAt copies buf to address a and returns the simulated latency.
func (r *Region) WriteAt(now sim.Time, a Address, buf []byte) (sim.Duration, error) {
	if !r.Contains(a, len(buf)) {
		return 0, fmt.Errorf("%w: write [%#x,+%d) to %q [%#x,%#x)",
			ErrOutOfRange, uint64(a), len(buf), r.name, uint64(r.base), uint64(r.End()))
	}
	r.copyIn(int(a-r.base), buf)
	r.writes++
	r.bytesWritten += uint64(len(buf))
	return r.access(now, len(buf), r.timing.WriteLatency), nil
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

// Zero clears [a, a+n) without timing, like a Poke of zeroes. A chunk
// that was never written already reads as zero, so only chunks that
// exist are touched: zeroing media nobody wrote allocates nothing.
func (r *Region) Zero(a Address, n int) error {
	if !r.Contains(a, n) {
		return ErrOutOfRange
	}
	for off := int(a - r.base); n > 0; {
		ci, co := off>>chunkShift, off&(chunkBytes-1)
		m := min(chunkBytes-co, n)
		if c := r.chunks[ci]; c != nil {
			clear(c[co : co+m])
		}
		off += m
		n -= m
	}
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
