// Package cache models a per-host CPU cache over simulated memory, with
// the software-coherence operations the paper's datapath depends on.
//
// CXL memory pools shipping today are not cache-coherent across hosts
// (§3: Back-Invalidate requires CXL 3.0 hardware that does not exist
// yet). A host that writes shared pool memory through its write-back
// cache leaves the data in its own cache; another host reading the same
// address from the pool sees stale bytes. The paper's datapath therefore
// publishes with non-temporal stores and reads with explicit
// invalidation (§4.1). This package makes that failure mode — and its
// fixes — concrete:
//
//   - Read/Write: normal cached accesses (write-allocate, write-back).
//   - NTStore: bypasses the cache, writing straight to memory.
//   - FlushLine/FlushRange: write back + invalidate (CLFLUSH).
//   - InvalidateRange: drop clean lines so the next read refetches.
//   - ReadFresh: invalidate + read, the receiver-side polling idiom.
//
// Stale reads are not an error: they are the simulated hardware behaving
// exactly as non-coherent hardware does. Tests assert both directions —
// that stale reads happen without coherence ops, and never happen with
// them.
//
// Residency is indexed by 4 KiB page: one map entry per page holds a
// 64-bit mask of its resident lines and a slot for each. The range
// operations (NTStore's pre-flush, FlushRange, InvalidateRange, and so
// ReadFresh and ReadStream) run on I/O buffers that are almost never
// cached, so they cost one lookup per page, skip pages with no resident
// line, and visit only the set mask bits inside the range — O(pages),
// not O(lines). Emptied pages are recycled through a free-list, like
// lines, so the miss/evict churn stays allocation-free.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Timing constants for on-chip operations. These are small compared to
// CXL latencies but are kept nonzero so per-operation cost ordering is
// realistic (cache hit < DDR < CXL < switched CXL).
const (
	// HitLatency is an LLC-class load hit.
	HitLatency sim.Duration = 20
	// StoreHitLatency is a store that hits the cache (store buffer
	// absorbs it).
	StoreHitLatency sim.Duration = 2
	// FenceLatency drains the store buffer (SFENCE).
	FenceLatency sim.Duration = 10
)

// DefaultLines is the default cache capacity in lines (2 MiB / 64 B).
const DefaultLines = 32768

// Residency index geometry: 4 KiB pages of 64 lines, so one uint64
// mask covers a page.
const (
	pageShift = 12
	lineShift = 6 // log2(mem.CachelineSize)
	pageLines = 1 << (pageShift - lineShift)
)

// line is one resident cacheline. Lines form an intrusive doubly-linked
// LRU list (front = most recent); evicted structs are recycled through
// the cache's free-list, so the miss/evict churn of a polling receiver
// costs zero steady-state allocations.
type line struct {
	addr       mem.Address
	data       [mem.CachelineSize]byte
	dirty      bool
	page       *page
	prev, next *line
}

// page is the residency entry for one 4 KiB page: bit i of mask is set
// exactly when lines[i] holds the resident line at offset i*64. Free
// pages are linked through next.
type page struct {
	mask  uint64
	lines [pageLines]*line
	next  *page
}

// pageKey and lineSlot split a line address into its index coordinates.
func pageKey(a mem.Address) mem.Address { return a >> pageShift }
func lineSlot(a mem.Address) uint       { return uint(a>>lineShift) & (pageLines - 1) }

// Cache is one host's private cache in front of a mem.Memory (its
// address space: local DDR + CXL windows). It is not safe for concurrent
// use; the simulation is single-threaded.
type Cache struct {
	host    string
	backing mem.Memory
	// pages indexes resident lines by page key; only pages with at least
	// one resident line are present.
	pages map[mem.Address]*page
	n     int // resident lines
	// Intrusive LRU: head is most recent, tail least recent.
	head, tail *line
	// free and freePages are the recycled-line and recycled-page stacks,
	// linked through next.
	free      *line
	freePages *page
	cap       int
	// fillBuf is the miss-path staging buffer. A local array would
	// escape to the heap on every miss because it is passed through the
	// mem.Memory interface; the cache is single-threaded, so one
	// persistent buffer serves every fill.
	fillBuf [mem.CachelineSize]byte

	// Stats.
	hits, misses  uint64
	writebacks    uint64
	ntStores      uint64
	flushes       uint64
	invalidations uint64
}

// New creates a cache for host over backing with capacity capLines
// (DefaultLines if <= 0).
func New(host string, backing mem.Memory, capLines int) *Cache {
	if capLines <= 0 {
		capLines = DefaultLines
	}
	return &Cache{
		host:    host,
		backing: backing,
		pages:   make(map[mem.Address]*page),
		cap:     capLines,
	}
}

// unlink removes a line from the LRU list.
func (c *Cache) unlink(l *line) {
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		c.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else {
		c.tail = l.prev
	}
	l.prev, l.next = nil, nil
}

// pushFront links a line at the LRU front.
func (c *Cache) pushFront(l *line) {
	l.prev, l.next = nil, c.head
	if c.head != nil {
		c.head.prev = l
	}
	c.head = l
	if c.tail == nil {
		c.tail = l
	}
}

// touch moves a line to the LRU front.
func (c *Cache) touch(l *line) {
	if c.head == l {
		return
	}
	c.unlink(l)
	c.pushFront(l)
}

// lookup returns the resident line at line address la, or nil.
func (c *Cache) lookup(la mem.Address) *line {
	if p := c.pages[pageKey(la)]; p != nil {
		return p.lines[lineSlot(la)]
	}
	return nil
}

// release drops a line from the index and LRU and files its struct on
// the free-list for reuse; a page left empty goes to the page free-list.
func (c *Cache) release(l *line) {
	c.unlink(l)
	p, i := l.page, lineSlot(l.addr)
	p.lines[i] = nil
	p.mask &^= 1 << i
	if p.mask == 0 {
		delete(c.pages, pageKey(l.addr))
		p.next = c.freePages
		c.freePages = p
	}
	l.page = nil
	c.n--
	l.next = c.free
	c.free = l
}

// newLine pops a recycled struct or allocates one.
func (c *Cache) newLine() *line {
	if l := c.free; l != nil {
		c.free = l.next
		l.next = nil
		return l
	}
	return &line{}
}

// insert adds a line, evicting the LRU line if at capacity. Evicting a
// dirty line writes it back (timed).
func (c *Cache) insert(now sim.Time, addr mem.Address, data []byte, dirty bool) (*line, sim.Duration, error) {
	var evictCost sim.Duration
	if c.n >= c.cap {
		victim := c.tail
		if victim.dirty {
			d, err := c.backing.WriteAt(now, victim.addr, victim.data[:])
			if err != nil {
				return nil, 0, fmt.Errorf("cache %s: writeback of %#x: %w", c.host, uint64(victim.addr), err)
			}
			c.writebacks++
			evictCost += d
		}
		c.release(victim)
	}
	key := pageKey(addr)
	p := c.pages[key]
	if p == nil {
		if p = c.freePages; p != nil {
			c.freePages = p.next
			p.next = nil
		} else {
			p = &page{}
		}
		c.pages[key] = p
	}
	l := c.newLine()
	l.addr, l.dirty, l.page = addr, dirty, p
	copy(l.data[:], data)
	c.pushFront(l)
	i := lineSlot(addr)
	p.lines[i] = l
	p.mask |= 1 << i
	c.n++
	return l, evictCost, nil
}

// fetch returns the line for addr, loading it from backing on a miss.
func (c *Cache) fetch(now sim.Time, addr mem.Address) (*line, sim.Duration, error) {
	if l := c.lookup(addr); l != nil {
		c.hits++
		c.touch(l)
		return l, HitLatency, nil
	}
	c.misses++
	d, err := c.backing.ReadAt(now, addr, c.fillBuf[:])
	if err != nil {
		return nil, 0, err
	}
	l, evictCost, err := c.insert(now+d, addr, c.fillBuf[:], false)
	if err != nil {
		return nil, 0, err
	}
	return l, d + evictCost, nil
}

// forEachLine iterates cacheline-aligned chunks of [a, a+size).
func forEachLine(a mem.Address, size int, f func(lineAddr mem.Address, off, n int) error) error {
	end := a + mem.Address(size)
	cur := a
	for cur < end {
		la := mem.AlignDown(cur)
		n := int(la) + mem.CachelineSize - int(cur)
		if rem := int(end - cur); rem < n {
			n = rem
		}
		if err := f(la, int(cur-la), n); err != nil {
			return err
		}
		cur += mem.Address(n)
	}
	return nil
}

// Read performs a cached read of len(buf) bytes at a. Lines present in
// the cache are served locally — including stale copies of pool memory
// another host has since overwritten. That is the point.
func (c *Cache) Read(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	var total sim.Duration
	off := 0
	err := forEachLine(a, len(buf), func(la mem.Address, lo, n int) error {
		l, d, err := c.fetch(now+total, la)
		if err != nil {
			return err
		}
		copy(buf[off:off+n], l.data[lo:lo+n])
		total += d
		off += n
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// Write performs a cached write (write-allocate, write-back). The data
// lands in this host's cache and reaches memory only on eviction, flush,
// or writeback — so it is NOT visible to other hosts yet.
func (c *Cache) Write(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	var total sim.Duration
	off := 0
	err := forEachLine(a, len(buf), func(la mem.Address, lo, n int) error {
		var l *line
		var d sim.Duration
		var err error
		if n == mem.CachelineSize {
			// Full-line store: no need to read-for-ownership on
			// non-coherent memory; allocate directly.
			if existing := c.lookup(la); existing != nil {
				l = existing
				c.touch(l)
				d = StoreHitLatency
			} else {
				var zero [mem.CachelineSize]byte
				var evictCost sim.Duration
				l, evictCost, err = c.insert(now+total, la, zero[:], false)
				if err != nil {
					return err
				}
				d = StoreHitLatency + evictCost
			}
		} else {
			l, d, err = c.fetch(now+total, la)
			if err != nil {
				return err
			}
			d += StoreHitLatency
		}
		copy(l.data[lo:lo+n], buf[off:off+n])
		l.dirty = true
		total += d
		off += n
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// forEachResident calls f, in ascending address order, on every
// resident line overlapping [a, a+size): one index lookup per page, and
// only the set mask bits inside the range. f may release its line.
func (c *Cache) forEachResident(a mem.Address, size int, f func(l *line) error) error {
	end := a + mem.Address(size)
	if end <= a {
		return nil
	}
	first, last := mem.AlignDown(a), mem.AlignDown(end-1)
	for key := pageKey(first); key <= pageKey(last); key++ {
		p := c.pages[key]
		if p == nil {
			continue
		}
		m := p.mask
		if key == pageKey(first) {
			m &= ^uint64(0) << lineSlot(first)
		}
		if key == pageKey(last) {
			m &= ^uint64(0) >> (pageLines - 1 - lineSlot(last))
		}
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			if err := f(p.lines[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// NTStore writes buf directly to memory, bypassing and invalidating this
// cache's copies (MOVNT semantics). This is how the paper's channel
// publishes messages (§4.1: "using non-temporal stores to send
// messages").
func (c *Cache) NTStore(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	// An NT store to a line that is resident (and possibly dirty with
	// *other* bytes of the same line) first writes the line back, as x86
	// implementations do, so no earlier cached store is lost.
	flushCost, err := c.FlushRange(now, a, len(buf))
	if err != nil {
		return 0, err
	}
	c.ntStores++
	d, err := c.backing.WriteAt(now+flushCost, a, buf)
	if err != nil {
		return 0, err
	}
	return flushCost + d + FenceLatency, nil
}

// FlushLine writes back (if dirty) and invalidates the line containing a
// (CLFLUSH).
func (c *Cache) FlushLine(now sim.Time, a mem.Address) (sim.Duration, error) {
	l := c.lookup(mem.AlignDown(a))
	if l == nil {
		return 0, nil
	}
	return c.flush(now, l)
}

// flush writes back l if dirty and releases it.
func (c *Cache) flush(now sim.Time, l *line) (sim.Duration, error) {
	var d sim.Duration
	if l.dirty {
		wd, err := c.backing.WriteAt(now, l.addr, l.data[:])
		if err != nil {
			return 0, err
		}
		d = wd
		c.writebacks++
	}
	c.release(l)
	c.flushes++
	return d, nil
}

// FlushRange flushes every line overlapping [a, a+size). Dirty lines are
// written back serially, which is what a CLFLUSH loop costs.
func (c *Cache) FlushRange(now sim.Time, a mem.Address, size int) (sim.Duration, error) {
	var total sim.Duration
	err := c.forEachResident(a, size, func(l *line) error {
		d, err := c.flush(now+total, l)
		if err != nil {
			return err
		}
		total += d
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// InvalidateRange drops any cached copies of [a, a+size) WITHOUT writing
// back. Dirty data in the range is lost, as with CLFLUSH-less INVD-style
// invalidation; the receiver side of a channel uses it on memory it only
// reads.
func (c *Cache) InvalidateRange(a mem.Address, size int) {
	_ = c.forEachResident(a, size, func(l *line) error {
		c.release(l)
		c.invalidations++
		return nil
	})
}

// ReadFresh invalidates then reads, guaranteeing the bytes come from
// memory rather than this host's cache. This is the polling idiom for
// non-coherent shared memory.
func (c *Cache) ReadFresh(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	c.InvalidateRange(a, len(buf))
	return c.Read(now, a, buf)
}

// ReadStream performs a non-caching bulk read (non-temporal loads):
// any stale cached copies are dropped and the bytes stream from memory
// in one pipelined transfer — one idle latency plus the bandwidth term,
// instead of one idle latency per cacheline. This is how stacks move
// payload data; ReadFresh's line-at-a-time cost is only appropriate for
// small control words.
func (c *Cache) ReadStream(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	c.InvalidateRange(a, len(buf))
	return c.backing.ReadAt(now, a, buf)
}

// FlushAll writes back and invalidates everything, in ascending address
// order (used on host hot-remove so no dirty pool data is stranded in a
// dead host's cache).
func (c *Cache) FlushAll(now sim.Time) (sim.Duration, error) {
	// Collect addresses first: flushing unlinks lines.
	addrs := make([]mem.Address, 0, c.n)
	for l := c.head; l != nil; l = l.next {
		addrs = append(addrs, l.addr)
	}
	slices.Sort(addrs)
	var total sim.Duration
	for _, a := range addrs {
		d, err := c.FlushLine(now+total, a)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}
