package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// refCache is the reference model for the differential test: one map
// entry per resident line, LRU order kept as an address slice, and every
// range operation walked line by line. It spells out the cache's timing
// and counter rules without any of its indexing.
type refCache struct {
	backing mem.Memory
	cap     int
	lines   map[mem.Address]*refLine
	lru     []mem.Address // most recent first

	hits, misses, writebacks         uint64
	ntStores, flushes, invalidations uint64
}

type refLine struct {
	data  [mem.CachelineSize]byte
	dirty bool
}

func newRef(backing mem.Memory, capLines int) *refCache {
	return &refCache{backing: backing, cap: capLines, lines: map[mem.Address]*refLine{}}
}

func (r *refCache) touch(la mem.Address) {
	i := slices.Index(r.lru, la)
	r.lru = slices.Insert(slices.Delete(r.lru, i, i+1), 0, la)
}

func (r *refCache) remove(la mem.Address) {
	delete(r.lines, la)
	i := slices.Index(r.lru, la)
	r.lru = slices.Delete(r.lru, i, i+1)
}

func (r *refCache) insert(now sim.Time, la mem.Address, data []byte) (*refLine, sim.Duration, error) {
	var evict sim.Duration
	if len(r.lines) >= r.cap {
		va := r.lru[len(r.lru)-1]
		if v := r.lines[va]; v.dirty {
			d, err := r.backing.WriteAt(now, va, v.data[:])
			if err != nil {
				return nil, 0, err
			}
			r.writebacks++
			evict = d
		}
		r.remove(va)
	}
	l := &refLine{}
	copy(l.data[:], data)
	r.lines[la] = l
	r.lru = slices.Insert(r.lru, 0, la)
	return l, evict, nil
}

func (r *refCache) fetch(now sim.Time, la mem.Address) (*refLine, sim.Duration, error) {
	if l, ok := r.lines[la]; ok {
		r.hits++
		r.touch(la)
		return l, HitLatency, nil
	}
	r.misses++
	var buf [mem.CachelineSize]byte
	d, err := r.backing.ReadAt(now, la, buf[:])
	if err != nil {
		return nil, 0, err
	}
	l, evict, err := r.insert(now+d, la, buf[:])
	if err != nil {
		return nil, 0, err
	}
	return l, d + evict, nil
}

func (r *refCache) Read(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	var total sim.Duration
	for off := 0; off < len(buf); {
		cur := a + mem.Address(off)
		la := mem.AlignDown(cur)
		lo := int(cur - la)
		n := min(mem.CachelineSize-lo, len(buf)-off)
		l, d, err := r.fetch(now+total, la)
		if err != nil {
			return 0, err
		}
		copy(buf[off:off+n], l.data[lo:lo+n])
		total += d
		off += n
	}
	return total, nil
}

func (r *refCache) Write(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	var total sim.Duration
	for off := 0; off < len(buf); {
		cur := a + mem.Address(off)
		la := mem.AlignDown(cur)
		lo := int(cur - la)
		n := min(mem.CachelineSize-lo, len(buf)-off)
		var l *refLine
		var d sim.Duration
		var err error
		if l = r.lines[la]; n == mem.CachelineSize && l != nil {
			r.touch(la)
			d = StoreHitLatency
		} else if n == mem.CachelineSize {
			var zero [mem.CachelineSize]byte
			if l, d, err = r.insert(now+total, la, zero[:]); err != nil {
				return 0, err
			}
			d += StoreHitLatency
		} else {
			if l, d, err = r.fetch(now+total, la); err != nil {
				return 0, err
			}
			d += StoreHitLatency
		}
		copy(l.data[lo:lo+n], buf[off:off+n])
		l.dirty = true
		total += d
		off += n
	}
	return total, nil
}

func (r *refCache) FlushLine(now sim.Time, a mem.Address) (sim.Duration, error) {
	la := mem.AlignDown(a)
	l, ok := r.lines[la]
	if !ok {
		return 0, nil
	}
	var d sim.Duration
	if l.dirty {
		wd, err := r.backing.WriteAt(now, la, l.data[:])
		if err != nil {
			return 0, err
		}
		d = wd
		r.writebacks++
	}
	r.remove(la)
	r.flushes++
	return d, nil
}

func (r *refCache) FlushRange(now sim.Time, a mem.Address, size int) (sim.Duration, error) {
	var total sim.Duration
	for la := mem.AlignDown(a); la < a+mem.Address(size); la += mem.CachelineSize {
		d, err := r.FlushLine(now+total, la)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func (r *refCache) NTStore(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	flush, err := r.FlushRange(now, a, len(buf))
	if err != nil {
		return 0, err
	}
	r.ntStores++
	d, err := r.backing.WriteAt(now+flush, a, buf)
	if err != nil {
		return 0, err
	}
	return flush + d + FenceLatency, nil
}

func (r *refCache) InvalidateRange(a mem.Address, size int) {
	for la := mem.AlignDown(a); la < a+mem.Address(size); la += mem.CachelineSize {
		if _, ok := r.lines[la]; ok {
			r.remove(la)
			r.invalidations++
		}
	}
}

func (r *refCache) ReadFresh(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	r.InvalidateRange(a, len(buf))
	return r.Read(now, a, buf)
}

func (r *refCache) ReadStream(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	r.InvalidateRange(a, len(buf))
	return r.backing.ReadAt(now, a, buf)
}

func (r *refCache) FlushAll(now sim.Time) (sim.Duration, error) {
	addrs := slices.Clone(r.lru)
	slices.Sort(addrs)
	var total sim.Duration
	for _, a := range addrs {
		d, err := r.FlushLine(now+total, a)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// flakyMem fails writes that touch one armed line, standing in for a
// faulting CXL link so the differential test covers the error paths.
type flakyMem struct {
	*mem.Region
	armed   bool
	failure mem.Address
}

var errFlaky = errors.New("injected write fault")

func (f *flakyMem) WriteAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if f.armed && a <= f.failure && f.failure < a+mem.Address(len(buf)) {
		return 0, errFlaky
	}
	return f.Region.WriteAt(now, a, buf)
}

// modelSpan is the differential test's address space: four 4 KiB pages.
const modelSpan = 4 << pageShift

func modelMem() *flakyMem {
	return &flakyMem{Region: mem.NewRegion("pool", 0, modelSpan, mem.Timing{
		ReadLatency:  237,
		WriteLatency: 180,
		Bandwidth:    30,
	}, nil)}
}

// checkIndex asserts the page index agrees with the LRU list: every
// resident line sits in its page's slot with its mask bit set, no slot
// or bit is stale, no empty page stays indexed, and n counts the lines.
func checkIndex(c *Cache) error {
	n := 0
	for l := c.head; l != nil; l = l.next {
		p := c.pages[pageKey(l.addr)]
		if p == nil || l.page != p || p.lines[lineSlot(l.addr)] != l || p.mask&(1<<lineSlot(l.addr)) == 0 {
			return fmt.Errorf("line %#x not indexed", uint64(l.addr))
		}
		n++
	}
	bitsSet := 0
	for _, p := range c.pages { //lint:ordered any bad page fails the check
		if p.mask == 0 {
			return errors.New("empty page left in the index")
		}
		for i, l := range p.lines {
			if (l != nil) != (p.mask&(1<<i) != 0) {
				return fmt.Errorf("page slot %d disagrees with its mask bit", i)
			}
		}
		bitsSet += bits.OnesCount64(p.mask)
	}
	if n != c.n || bitsSet != c.n {
		return fmt.Errorf("n=%d, LRU holds %d, masks hold %d", c.n, n, bitsSet)
	}
	return nil
}

// TestCacheMatchesLineModel drives the page-indexed cache and the
// one-entry-per-line reference model through the same random operation
// sequences — tiny capacities, ranges that cross 4 KiB page boundaries
// and are partly resident, and injected write faults — and requires
// identical durations, errors, bytes read, counters, LRU order and
// backing memory after every operation.
func TestCacheMatchesLineModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		capLines := 4 + rng.Intn(13)
		cm, rm := modelMem(), modelMem()
		c, r := New("C", cm, capLines), newRef(rm, capLines)
		now := sim.Time(0)
		gotC, gotR := make([]byte, modelSpan), make([]byte, modelSpan)
		for step := 0; step < 600; step++ {
			// Addresses cluster around page boundaries so ranges straddle
			// pages and find some of their lines resident.
			size := 1 + rng.Intn(200)
			if rng.Intn(4) == 0 {
				size = 1 + rng.Intn(2*4096)
			}
			boundary := (1 + rng.Intn(3)) << pageShift
			a := boundary - 512 + rng.Intn(1024) - rng.Intn(size)
			a = max(0, min(a, modelSpan-size))
			addr := mem.Address(a)
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			armed := rng.Intn(10) == 0
			fail := mem.Address(rng.Intn(modelSpan))
			cm.armed, cm.failure = armed, fail
			rm.armed, rm.failure = armed, fail

			op := rng.Intn(9)
			var dc, dr sim.Duration
			var ec, er error
			bc, br := gotC[:size], gotR[:size]
			switch op {
			case 0:
				dc, ec = c.Read(now, addr, bc)
				dr, er = r.Read(now, addr, br)
			case 1:
				dc, ec = c.Write(now, addr, data)
				dr, er = r.Write(now, addr, data)
			case 2:
				dc, ec = c.NTStore(now, addr, data)
				dr, er = r.NTStore(now, addr, data)
			case 3:
				dc, ec = c.FlushLine(now, addr)
				dr, er = r.FlushLine(now, addr)
			case 4:
				dc, ec = c.FlushRange(now, addr, size)
				dr, er = r.FlushRange(now, addr, size)
			case 5:
				c.InvalidateRange(addr, size)
				r.InvalidateRange(addr, size)
			case 6:
				dc, ec = c.ReadFresh(now, addr, bc)
				dr, er = r.ReadFresh(now, addr, br)
			case 7:
				dc, ec = c.ReadStream(now, addr, bc)
				dr, er = r.ReadStream(now, addr, br)
			case 8:
				if rng.Intn(8) != 0 {
					continue // keep the cache populated most of the time
				}
				dc, ec = c.FlushAll(now)
				dr, er = r.FlushAll(now)
			}
			where := fmt.Sprintf("seed %d step %d op %d [%#x,+%d)", seed, step, op, a, size)
			if dc != dr || (ec == nil) != (er == nil) {
				t.Fatalf("%s: cache (%v, %v), model (%v, %v)", where, dc, ec, dr, er)
			}
			if (op == 0 || op == 6 || op == 7) && ec == nil && !bytes.Equal(bc, br) {
				t.Fatalf("%s: bytes read differ", where)
			}
			h1, m1, w1 := c.hits, c.misses, c.writebacks
			n1, f1, i1 := c.ntStores, c.flushes, c.invalidations
			if [6]uint64{h1, m1, w1, n1, f1, i1} != [6]uint64{r.hits, r.misses, r.writebacks, r.ntStores, r.flushes, r.invalidations} {
				t.Fatalf("%s: counters differ", where)
			}
			if c.n != len(r.lines) {
				t.Fatalf("%s: Len %d, model %d", where, c.n, len(r.lines))
			}
			var lru []mem.Address
			for l := c.head; l != nil; l = l.next {
				lru = append(lru, l.addr)
				if !bytes.Equal(l.data[:], r.lines[l.addr].data[:]) || l.dirty != r.lines[l.addr].dirty {
					t.Fatalf("%s: line %#x differs", where, uint64(l.addr))
				}
			}
			if !slices.Equal(lru, r.lru) {
				t.Fatalf("%s: LRU order %x, model %x", where, lru, r.lru)
			}
			if err := checkIndex(c); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if err := cm.Peek(0, gotC); err != nil {
				t.Fatal(err)
			}
			if err := rm.Peek(0, gotR); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotC, gotR) {
				t.Fatalf("%s: backing memory differs", where)
			}
			now += dc + sim.Time(1+rng.Intn(500))
		}
	}
}
