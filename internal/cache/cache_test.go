package cache

import (
	"testing"
	"testing/quick"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// pool builds a simulated CXL-pool-like region shared by two caches.
func pool() *mem.Region {
	return mem.NewRegion("pool", 0, 1<<20, mem.Timing{
		ReadLatency:  237,
		WriteLatency: 180,
		Bandwidth:    30,
	}, nil)
}

func TestReadWriteRoundTripSingleHost(t *testing.T) {
	p := pool()
	c := New("A", p, 0)
	msg := []byte("cached write, cached read")
	if _, err := c.Write(0, 100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := c.Read(10, 100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("got %q", got)
	}
}

func TestCacheHitFasterThanMiss(t *testing.T) {
	p := pool()
	c := New("A", p, 0)
	buf := make([]byte, 64)
	miss, err := c.Read(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.Read(1000, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if hit >= miss {
		t.Fatalf("hit %v not faster than miss %v", hit, miss)
	}
	if hit != HitLatency {
		t.Fatalf("hit latency = %v, want %v", hit, HitLatency)
	}
	hits, misses := c.hits, c.misses
	if hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", hits, misses)
	}
}

// The core non-coherence behavior (§3/§4.1): a cached write on host A is
// invisible to host B until A flushes or uses a non-temporal store.
func TestStaleReadWithoutCoherenceOps(t *testing.T) {
	p := pool()
	a := New("A", p, 0)
	b := New("B", p, 0)
	// Both hosts read the line first so B has it cached... actually B
	// reading from memory is enough: A's write stays in A's cache.
	if err := p.Poke(0, []byte("old-old-old-old-")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(0, 0, []byte("new-new-new-new-")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if _, err := b.Read(100, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "old-old-old-old-" {
		t.Fatalf("host B saw %q; non-coherent pool must serve stale data", got)
	}
}

func TestFlushMakesWriteVisible(t *testing.T) {
	p := pool()
	a := New("A", p, 0)
	b := New("B", p, 0)
	if _, err := a.Write(0, 0, []byte("published")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FlushRange(10, 0, 9); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9)
	if _, err := b.Read(100, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "published" {
		t.Fatalf("host B saw %q after flush", got)
	}
}

func TestNTStoreMakesWriteVisibleImmediately(t *testing.T) {
	p := pool()
	a := New("A", p, 0)
	b := New("B", p, 0)
	if _, err := a.NTStore(0, 64, []byte("nt-store-payload")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if _, err := b.Read(10, 64, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "nt-store-payload" {
		t.Fatalf("host B saw %q after NT store", got)
	}
}

func TestReceiverMustInvalidateToSeeUpdates(t *testing.T) {
	p := pool()
	a := New("A", p, 0)
	b := New("B", p, 0)
	buf := make([]byte, 8)
	// B polls the flag line, caching it.
	if _, err := b.Read(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	// A publishes with a coherent (NT) store.
	if _, err := a.NTStore(100, 0, []byte("GOGOGOGO")); err != nil {
		t.Fatal(err)
	}
	// A plain re-read on B hits its stale cached copy.
	if _, err := b.Read(200, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) == "GOGOGOGO" {
		t.Fatal("plain read saw the update; cache should have served stale line")
	}
	// ReadFresh invalidates and refetches.
	if _, err := b.ReadFresh(300, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "GOGOGOGO" {
		t.Fatalf("ReadFresh saw %q", buf)
	}
}

func TestNTStoreInvalidatesLocalCopy(t *testing.T) {
	p := pool()
	a := New("A", p, 0)
	buf := make([]byte, 16)
	if _, err := a.Read(0, 0, buf); err != nil { // cache the line
		t.Fatal(err)
	}
	if _, err := a.NTStore(10, 0, []byte("fresh-bytes-here")); err != nil {
		t.Fatal(err)
	}
	// A's own subsequent read must see the NT-stored data, not the old
	// cached line.
	if _, err := a.Read(20, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "fresh-bytes-here" {
		t.Fatalf("own read after NT store = %q", buf)
	}
}

func TestEvictionWritesBackDirtyLines(t *testing.T) {
	p := pool()
	c := New("A", p, 4) // tiny cache: 4 lines
	// Dirty 4 lines.
	for i := 0; i < 4; i++ {
		if _, err := c.Write(sim.Time(i), mem.Address(i*64), []byte("dirtydata")); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a 5th line: the LRU (line 0) must be written back.
	if _, err := c.Write(100, 4*64, []byte("overflow")); err != nil {
		t.Fatal(err)
	}
	wb := c.writebacks
	if wb != 1 {
		t.Fatalf("writebacks = %d, want 1", wb)
	}
	got := make([]byte, 9)
	if err := p.Peek(0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "dirtydata" {
		t.Fatalf("evicted line content in memory = %q", got)
	}
	if c.n != 4 {
		t.Fatalf("resident lines = %d, want 4", c.n)
	}
}

func TestLRUOrderRespectsTouches(t *testing.T) {
	p := pool()
	c := New("A", p, 2)
	buf := make([]byte, 8)
	if _, err := c.Read(0, 0, buf); err != nil { // line 0
		t.Fatal(err)
	}
	if _, err := c.Read(1, 64, buf); err != nil { // line 1
		t.Fatal(err)
	}
	if _, err := c.Read(2, 0, buf); err != nil { // touch line 0
		t.Fatal(err)
	}
	if _, err := c.Read(3, 128, buf); err != nil { // evicts line 1 (LRU)
		t.Fatal(err)
	}
	// Line 0 must still be a hit.
	hits0 := c.hits
	if _, err := c.Read(4, 0, buf); err != nil {
		t.Fatal(err)
	}
	hits1 := c.hits
	if hits1 != hits0+1 {
		t.Fatal("LRU evicted the recently-touched line")
	}
}

func TestWriteSpanningLines(t *testing.T) {
	p := pool()
	c := New("A", p, 0)
	data := make([]byte, 200) // spans 4 lines starting at offset 60
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := c.Write(0, 60, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 200)
	if _, err := c.Read(10, 60, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestPartialLineWritePreservesNeighbors(t *testing.T) {
	p := pool()
	if err := p.Poke(0, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	c := New("A", p, 0)
	if _, err := c.Write(0, 4, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if _, err := c.Read(10, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "0123XY6789abcdef" {
		t.Fatalf("partial write merged wrong: %q", got)
	}
}

func TestFlushAllWritesEverythingBack(t *testing.T) {
	p := pool()
	c := New("A", p, 0)
	for i := 0; i < 10; i++ {
		if _, err := c.Write(sim.Time(i), mem.Address(i*64), []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.FlushAll(1000); err != nil {
		t.Fatal(err)
	}
	if c.n != 0 {
		t.Fatalf("lines after FlushAll = %d", c.n)
	}
	for i := 0; i < 10; i++ {
		got := make([]byte, 1)
		if err := p.Peek(mem.Address(i*64), got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("line %d not written back", i)
		}
	}
}

func TestFlushCleanLineIsCheap(t *testing.T) {
	p := pool()
	c := New("A", p, 0)
	buf := make([]byte, 8)
	if _, err := c.Read(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	d, err := c.FlushLine(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("clean flush cost %v, want 0 (no writeback)", d)
	}
	if c.n != 0 {
		t.Fatal("clean flush did not invalidate")
	}
}

func TestFlushUncachedLineNoop(t *testing.T) {
	p := pool()
	c := New("A", p, 0)
	d, err := c.FlushLine(0, 4096)
	if err != nil || d != 0 {
		t.Fatalf("flush of uncached line: d=%v err=%v", d, err)
	}
}

func TestInvalidateDropsDirtyData(t *testing.T) {
	p := pool()
	if err := p.Poke(0, []byte("memory-contents!")); err != nil {
		t.Fatal(err)
	}
	c := New("A", p, 0)
	if _, err := c.Write(0, 0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	c.InvalidateRange(0, 6)
	got := make([]byte, 16)
	if _, err := c.Read(10, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "memory-contents!" {
		t.Fatalf("invalidate did not drop dirty data: %q", got)
	}
}

func TestCoherenceCostOrdering(t *testing.T) {
	p := pool()
	c := New("A", p, 0)
	line := make([]byte, 64)
	wHit, err := c.Write(0, 0, line)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := c.NTStore(100, 0, line)
	if err != nil {
		t.Fatal(err)
	}
	// A cached write must be much cheaper than an NT store to CXL; the
	// price of coherence is paid at publish time.
	if wHit >= nt {
		t.Fatalf("cached write %v not cheaper than NT store %v", wHit, nt)
	}
}

// Property: under any mix of writes, flushes and NT stores from one
// writer, a reader that always uses ReadFresh after a full FlushRange by
// the writer observes exactly the writer's data.
func TestFlushThenFreshReadCoherenceProperty(t *testing.T) {
	if err := quick.Check(func(chunks [][]byte, seed int64) bool {
		p := pool()
		w := New("W", p, 8) // tiny cache forces evictions too
		r := New("R", p, 8)
		rng := sim.NewRand(seed)
		now := sim.Time(0)
		shadow := make([]byte, 1<<12)
		for _, chunk := range chunks {
			if len(chunk) == 0 {
				continue
			}
			if len(chunk) > 256 {
				chunk = chunk[:256]
			}
			addr := mem.Address(rng.Intn(len(shadow) - len(chunk)))
			now += 1000
			switch rng.Intn(3) {
			case 0:
				if _, err := w.Write(now, addr, chunk); err != nil {
					return false
				}
			case 1:
				if _, err := w.NTStore(now, addr, chunk); err != nil {
					return false
				}
			case 2:
				if _, err := w.Write(now, addr, chunk); err != nil {
					return false
				}
				if _, err := w.FlushRange(now, addr, len(chunk)); err != nil {
					return false
				}
			}
			copy(shadow[addr:], chunk)
		}
		// Writer publishes everything.
		if _, err := w.FlushAll(now + 1000); err != nil {
			return false
		}
		got := make([]byte, len(shadow))
		if _, err := r.ReadFresh(now+2000, 0, got); err != nil {
			return false
		}
		for i := range shadow {
			if got[i] != shadow[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCachedReadHit(b *testing.B) {
	p := pool()
	c := New("A", p, 0)
	buf := make([]byte, 64)
	if _, err := c.Read(0, 0, buf); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(sim.Time(i+1), 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNTStore64(b *testing.B) {
	p := pool()
	c := New("A", p, 0)
	buf := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		if _, err := c.NTStore(sim.Time(i*1000), 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReadStreamBypassesCacheButSeesFreshData(t *testing.T) {
	p := pool()
	a := New("A", p, 0)
	b := New("B", p, 0)
	// B caches a stale copy.
	stale := make([]byte, 256)
	if _, err := b.Read(0, 0, stale); err != nil {
		t.Fatal(err)
	}
	// A publishes new bytes.
	fresh := make([]byte, 256)
	for i := range fresh {
		fresh[i] = byte(i + 1)
	}
	if _, err := a.NTStore(100, 0, fresh); err != nil {
		t.Fatal(err)
	}
	// B's streaming read must observe them despite its cached copy.
	got := make([]byte, 256)
	d, err := b.ReadStream(200, 0, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if got[i] != fresh[i] {
			t.Fatalf("stale byte at %d", i)
		}
	}
	// One pipelined transfer: far cheaper than 4 serial line fetches.
	lineByLine, err := b.ReadFresh(300, 0, got)
	if err != nil {
		t.Fatal(err)
	}
	if d >= lineByLine {
		t.Fatalf("stream read %v not cheaper than line-by-line %v", d, lineByLine)
	}
	// And it must not have populated the cache.
	b.InvalidateRange(0, 256) // no-op if nothing cached
	if b.n != 0 {
		t.Fatalf("stream read left %d lines resident", b.n)
	}
}

// TestCoherenceCounters pins the software-coherence work counters: one
// per NTStore call, one per line flushed or invalidated, and none for
// absent lines in a range.
func TestCoherenceCounters(t *testing.T) {
	p := pool()
	c := New("A", p, 0)
	buf := make([]byte, 64)
	// Lines at 0, 64 and 4096 (the next page) resident; 64 dirty.
	for _, a := range []mem.Address{0, 64, 4096} {
		if _, err := c.Read(0, a, buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Write(0, 64, buf[:8]); err != nil {
		t.Fatal(err)
	}
	// Flushes 64 (written back) and 4096 out of an 8 KiB range.
	if _, err := c.NTStore(10, 64, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	// Drops line 0; the rest of the range is absent.
	c.InvalidateRange(0, 3*4096)
	if _, err := c.NTStore(20, 0, buf); err != nil {
		t.Fatal(err)
	}
	nt, fl, inv := c.ntStores, c.flushes, c.invalidations
	if nt != 2 || fl != 2 || inv != 1 {
		t.Fatalf("Coherence() = (%d, %d, %d), want (2, 2, 1)", nt, fl, inv)
	}
	if wb := c.writebacks; wb != 1 || c.n != 0 {
		t.Fatalf("writebacks = %d, Len = %d; want 1, 0", wb, c.n)
	}
}

// TestRangeOpsSteadyStateZeroAlloc pins the allocation-free data plane:
// jumbo NTStore and ReadStream over partly resident pages, and polling
// whose evictions empty and refill pages, so page recycling is covered.
func TestRangeOpsSteadyStateZeroAlloc(t *testing.T) {
	p := pool()
	c := New("A", p, 16)
	jumbo := make([]byte, 8192)
	word := make([]byte, 8)
	now := sim.Time(0)
	step := func() {
		// Resident lines inside the buffer and on unrelated pages.
		for _, a := range []mem.Address{4096 + 128, 3*4096 + 64, 64 << 10} {
			if _, err := c.Write(now, a, word); err != nil {
				t.Fatal(err)
			}
		}
		d, err := c.NTStore(now, 4096+100, jumbo)
		if err != nil {
			t.Fatal(err)
		}
		now += d
		if _, err := c.Read(now, 2*4096, word); err != nil {
			t.Fatal(err)
		}
		if d, err = c.ReadStream(now, 4096+100, jumbo); err != nil {
			t.Fatal(err)
		}
		now += d
		// 20 polled words over five pages through a 16-line cache.
		for i := 0; i < 20; i++ {
			if d, err = c.ReadFresh(now, mem.Address(128<<10+i*1000), word); err != nil {
				t.Fatal(err)
			}
			now += d
		}
	}
	step() // warm the backing region's chunks and the free-lists
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state range ops allocate %.1f/op, want 0", allocs)
	}
}

// jumboCache returns a cache with lines resident on the pages an 8 KiB
// buffer at 4096+100 touches, just outside the buffer, and on unrelated
// pages, as a host's cache looks while its vNIC moves jumbo frames
// through pool buffers.
func jumboCache(b *testing.B) *Cache {
	c := New("A", pool(), 0)
	word := make([]byte, 8)
	for _, a := range []mem.Address{0, 4096, 3*4096 + 512, 5 * 4096} {
		if _, err := c.Read(0, a, word); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func BenchmarkNTStoreJumbo(b *testing.B) {
	c := jumboCache(b)
	buf := make([]byte, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.NTStore(sim.Time(i*10000), 4096+100, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadStreamJumbo(b *testing.B) {
	c := jumboCache(b)
	buf := make([]byte, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadStream(sim.Time(i*10000), 4096+100, buf); err != nil {
			b.Fatal(err)
		}
	}
}
