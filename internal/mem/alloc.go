package mem

import (
	"fmt"
	"math/bits"
	"sort"
)

// Allocator hands out cacheline-aligned blocks from an address range.
// It is a first-fit free-list allocator with coalescing on free — simple,
// deterministic, and sufficient for I/O buffer pools, which is what the
// paper places in CXL memory (§4.1: "TX and RX buffers, not the TX/RX
// queues").
//
// Live blocks are indexed by a bitmap of block starts, one bit per
// cacheline, rather than a map from address to size. Blocks and free
// spans tile the range, so a block's size is the distance from its
// start bit to the next start bit or the next free span, whichever
// comes first. The costs:
//   - Alloc is a first-fit walk of the free list plus one bit set;
//   - Free is a binary search of the free list, a scan of the block's
//     own lines for its end (a word of bits at a time), and the
//     free-list insert;
//   - memory is 512 B per 256 KiB of range (a 4096-line leaf), for
//     leaves up to the highest block ever allocated. First fit packs
//     from the bottom, so a large, mostly idle pool costs only what its
//     allocations reach.
type Allocator struct {
	base Address
	size int
	free []span // sorted by base, non-adjacent (coalesced)
	// starts[i] holds the start bits of lines [i*leafLines,
	// (i+1)*leafLines) of the range; nil leaves and leaves past the end
	// of the slice have no starts.
	starts []*startLeaf
	live   int
}

type span struct {
	base Address
	size int
}

// leafLines is the number of cachelines one start-bitmap leaf covers.
const leafLines = 4096

type startLeaf [leafLines / 64]uint64

// NewAllocator manages [base, base+size). Base and size are rounded
// inward to cacheline alignment.
func NewAllocator(base Address, size int) *Allocator {
	alignedBase := AlignUp(base)
	end := AlignDown(base + Address(size))
	if end <= alignedBase {
		panic(fmt.Sprintf("mem: allocator range [%#x,+%d) too small after alignment",
			uint64(base), size))
	}
	sz := int(end - alignedBase)
	return &Allocator{
		base: alignedBase,
		size: sz,
		free: []span{{base: alignedBase, size: sz}},
	}
}

// Size returns the total managed bytes.
func (a *Allocator) Size() int { return a.size }

// FreeBytes returns the number of currently unallocated bytes.
func (a *Allocator) FreeBytes() int {
	n := 0
	for _, s := range a.free {
		n += s.size
	}
	return n
}

// UsedBytes returns the number of currently allocated bytes.
func (a *Allocator) UsedBytes() int { return a.size - a.FreeBytes() }

// Alloc returns the base address of a new cacheline-aligned block of at
// least n bytes (rounded up to a multiple of the cacheline size).
func (a *Allocator) Alloc(n int) (Address, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: alloc of non-positive size %d", n)
	}
	n = int(AlignUp(Address(n)))
	for i, s := range a.free {
		if s.size >= n {
			addr := s.base
			if s.size == n {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{base: s.base + Address(n), size: s.size - n}
			}
			a.setStart(a.line(addr))
			a.live++
			return addr, nil
		}
	}
	return 0, fmt.Errorf("%w: want %d bytes, %d free (fragmented into %d spans)",
		ErrNoSpace, n, a.FreeBytes(), len(a.free))
}

// Free releases a block previously returned by Alloc.
func (a *Allocator) Free(addr Address) error {
	line := a.line(addr)
	if addr < a.base || addr >= a.base+Address(a.size) || addr%CachelineSize != 0 ||
		!a.isStart(line) {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint64(addr))
	}
	a.clearStart(line)
	a.live--
	// The block ends at the next start or the next free span.
	idx := sort.Search(len(a.free), func(i int) bool { return a.free[i].base > addr })
	limit := a.size / CachelineSize
	if idx < len(a.free) {
		limit = a.line(a.free[idx].base)
	}
	n := (a.nextStart(line+1, limit) - line) * CachelineSize
	// Insert into sorted free list and coalesce with neighbors.
	a.free = append(a.free, span{})
	copy(a.free[idx+1:], a.free[idx:])
	a.free[idx] = span{base: addr, size: n}
	// Coalesce with next.
	if idx+1 < len(a.free) && a.free[idx].base+Address(a.free[idx].size) == a.free[idx+1].base {
		a.free[idx].size += a.free[idx+1].size
		a.free = append(a.free[:idx+1], a.free[idx+2:]...)
	}
	// Coalesce with previous.
	if idx > 0 && a.free[idx-1].base+Address(a.free[idx-1].size) == a.free[idx].base {
		a.free[idx-1].size += a.free[idx].size
		a.free = append(a.free[:idx], a.free[idx+1:]...)
	}
	return nil
}

// AllocCount returns the number of live allocations.
func (a *Allocator) AllocCount() int { return a.live }

// line returns the index of the cacheline at addr within the range.
func (a *Allocator) line(addr Address) int { return int(addr-a.base) / CachelineSize }

func (a *Allocator) setStart(l int) {
	li := l / leafLines
	for len(a.starts) <= li {
		a.starts = append(a.starts, nil)
	}
	if a.starts[li] == nil {
		a.starts[li] = new(startLeaf)
	}
	a.starts[li][l%leafLines/64] |= 1 << (l % 64)
}

func (a *Allocator) clearStart(l int) {
	a.starts[l/leafLines][l%leafLines/64] &^= 1 << (l % 64)
}

func (a *Allocator) isStart(l int) bool {
	li := l / leafLines
	return li < len(a.starts) && a.starts[li] != nil &&
		a.starts[li][l%leafLines/64]&(1<<(l%64)) != 0
}

// nextStart returns the first line in [from, limit) with a start bit,
// or limit if there is none.
func (a *Allocator) nextStart(from, limit int) int {
	for l := from; l < limit; {
		li := l / leafLines
		if li >= len(a.starts) {
			break
		}
		leaf := a.starts[li]
		if leaf == nil {
			l = (li + 1) * leafLines
			continue
		}
		w := leaf[l%leafLines/64] >> (l % 64)
		if w != 0 {
			if s := l + bits.TrailingZeros64(w); s < limit {
				return s
			}
			break
		}
		l += 64 - l%64
	}
	return limit
}
