package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"cxlpool/internal/sim"
)

// refAllocator is the reference model for Allocator: the same first-fit
// free list, with live blocks indexed by a map from start address to
// size.
type refAllocator struct {
	base Address
	size int
	free []span
	used map[Address]int
}

func newRefAllocator(base Address, size int) *refAllocator {
	b := AlignUp(base)
	sz := int(AlignDown(base+Address(size)) - b)
	return &refAllocator{base: b, size: sz, free: []span{{b, sz}}, used: map[Address]int{}}
}

func (r *refAllocator) freeBytes() int {
	n := 0
	for _, s := range r.free {
		n += s.size
	}
	return n
}

func (r *refAllocator) alloc(n int) (Address, error) {
	if n <= 0 {
		return 0, fmt.Errorf("non-positive size %d", n)
	}
	n = int(AlignUp(Address(n)))
	for i, s := range r.free {
		if s.size < n {
			continue
		}
		if s.size == n {
			r.free = slices.Delete(r.free, i, i+1)
		} else {
			r.free[i] = span{s.base + Address(n), s.size - n}
		}
		r.used[s.base] = n
		return s.base, nil
	}
	return 0, ErrNoSpace
}

func (r *refAllocator) release(addr Address) error {
	n, ok := r.used[addr]
	if !ok {
		return ErrBadFree
	}
	delete(r.used, addr)
	idx := sort.Search(len(r.free), func(i int) bool { return r.free[i].base > addr })
	r.free = slices.Insert(r.free, idx, span{addr, n})
	if idx+1 < len(r.free) && addr+Address(n) == r.free[idx+1].base {
		r.free[idx].size += r.free[idx+1].size
		r.free = slices.Delete(r.free, idx+1, idx+2)
	}
	if idx > 0 && r.free[idx-1].base+Address(r.free[idx-1].size) == addr {
		r.free[idx-1].size += r.free[idx].size
		r.free = slices.Delete(r.free, idx, idx+1)
	}
	return nil
}

// errKind names an allocator error by its sentinel, so the model and
// the allocator can disagree only on kind, not on message text.
func errKind(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNoSpace):
		return "nospace"
	case errors.Is(err, ErrBadFree):
		return "badfree"
	default:
		return "invalid"
	}
}

// TestAllocatorMatchesReferenceModel drives the start-bitmap index and
// the map-based model through the same random Alloc/Free sequences and
// checks, after every step, the returned address, the error kind, the
// byte and block counts, and the free list itself. The ranges have
// unaligned ends and span several bitmap leaves; the sizes reach the
// whole range, so runs fragment, exhaust, and allocate the last line.
func TestAllocatorMatchesReferenceModel(t *testing.T) {
	shapes := []struct {
		base    Address
		size    int
		maxSize int
	}{
		{0x1010, 8<<10 + 37, 2 << 10},                      // tiny: frequent exhaustion
		{0x4000_0000_0000, 3*leafLines*64 + 200, 64 << 10}, // crosses leaf edges
		{0, 1 << 20, 512 << 10},                            // huge blocks, few at a time
	}
	for si, sh := range shapes {
		for seed := int64(1); seed <= 60; seed++ {
			t.Run(fmt.Sprintf("shape%d/seed%d", si, seed), func(t *testing.T) {
				runAllocatorDifferential(t, sim.NewRand(seed), sh.base, sh.size, sh.maxSize)
			})
		}
	}
}

func runAllocatorDifferential(t *testing.T, rng *sim.Rand, base Address, size, maxSize int) {
	a, ref := NewAllocator(base, size), newRefAllocator(base, size)
	end := ref.base + Address(ref.size)
	var live, dead []Address // dead: freed blocks, for double frees
	liveAt := func() int { return rng.Intn(len(live)) }
	for step := 0; step < 1500; step++ {
		var op string
		var got, want Address
		var gotErr, wantErr error
		switch k := rng.Intn(20); {
		case k < 8 || len(live) == 0:
			n := 1 + rng.Intn(maxSize)
			switch rng.Intn(10) {
			case 0:
				n = 1 + rng.Intn(CachelineSize) // one line
			case 1:
				n = ref.freeBytes() // exactly what is left
			case 2:
				n = -rng.Intn(2) // zero or negative
			}
			op = fmt.Sprintf("Alloc(%d)", n)
			got, gotErr = a.Alloc(n)
			want, wantErr = ref.alloc(n)
			if wantErr == nil {
				live = append(live, want)
			}
		case k < 15:
			i := liveAt()
			addr := live[i]
			live = slices.Delete(live, i, i+1)
			dead = append(dead, addr)
			op = fmt.Sprintf("Free(%#x)", uint64(addr))
			gotErr, wantErr = a.Free(addr), ref.release(addr)
		default:
			var addr Address
			switch rng.Intn(6) {
			case 0: // double free (or a freed start reallocated since)
				if len(dead) == 0 {
					continue
				}
				addr = dead[rng.Intn(len(dead))]
			case 1: // interior line of a live block
				b := live[liveAt()]
				lines := ref.used[b] / CachelineSize
				if lines == 1 {
					continue
				}
				addr = b + Address(1+rng.Intn(lines-1))*CachelineSize
			case 2: // misaligned
				addr = live[liveAt()] + Address(1+rng.Intn(CachelineSize-1))
			case 3: // out of range, below and above
				addr = []Address{ref.base - CachelineSize, end, end + CachelineSize, 0}[rng.Intn(4)]
			case 4: // never allocated: a line inside a free span
				if len(ref.free) == 0 {
					continue
				}
				s := ref.free[rng.Intn(len(ref.free))]
				addr = s.base + Address(rng.Intn(s.size/CachelineSize))*CachelineSize
			case 5: // the last line of the range
				addr = end - CachelineSize
			}
			op = fmt.Sprintf("Free(%#x) [bad?]", uint64(addr))
			gotErr, wantErr = a.Free(addr), ref.release(addr)
			if wantErr == nil {
				i := slices.Index(live, addr)
				live = slices.Delete(live, i, i+1)
				dead = append(dead, addr)
			}
		}
		if got != want || errKind(gotErr) != errKind(wantErr) {
			t.Fatalf("step %d %s = (%#x, %v), model (%#x, %v)",
				step, op, uint64(got), gotErr, uint64(want), wantErr)
		}
		if a.FreeBytes() != ref.freeBytes() || liveBlocks(a) != len(ref.used) {
			t.Fatalf("step %d %s: free/used/count = %d/%d/%d, model %d/%d/%d", step, op,
				a.FreeBytes(), a.size-a.FreeBytes(), liveBlocks(a),
				ref.freeBytes(), ref.size-ref.freeBytes(), len(ref.used))
		}
		if !slices.Equal(a.free, ref.free) {
			t.Fatalf("step %d %s: free list %v, model %v", step, op, a.free, ref.free)
		}
	}
}

// TestRegionZeroSkipsMissingChunks checks that Store.Zero, as the pod
// sanitizer calls it, clears bytes in chunks that exist, across chunk
// edges, and materializes none.
func TestRegionZeroSkipsMissingChunks(t *testing.T) {
	r := NewRegion("z", 0x10000, 3*chunkBytes+1000, Timing{}, nil)
	ones := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xff
		}
		return b
	}
	// Chunks 0, 2 and the short chunk 3 exist; chunk 1 does not.
	if err := r.Poke(r.Base()+chunkBytes-300, ones(300)); err != nil {
		t.Fatal(err)
	}
	if err := r.Poke(r.Base()+2*chunkBytes, ones(chunkBytes+1000)); err != nil {
		t.Fatal(err)
	}
	// Zero from 100 bytes before the chunk 0/1 edge to 50 bytes past the
	// chunk 2/3 edge.
	from, n := r.Base()+chunkBytes-100, 2*chunkBytes+150
	r.store.Zero(int(from-r.base), n)
	if r.store.chunks[1].b != nil {
		t.Fatal("Zero materialized a chunk that was never written")
	}
	got := make([]byte, r.Size())
	if err := r.Peek(r.Base(), got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		a := r.Base() + Address(i)
		var want byte
		switch {
		case a >= from && a < from+Address(n):
			want = 0
		case a >= r.Base()+chunkBytes-300 && a < r.Base()+chunkBytes:
			want = 0xff
		case a >= r.Base()+2*chunkBytes:
			want = 0xff
		}
		if b != want {
			t.Fatalf("byte at offset %d = %#x, want %#x", i, b, want)
		}
	}
	// A range over only the missing chunk leaves it missing.
	if r.store.Zero(chunkBytes, chunkBytes); r.store.chunks[1].b != nil {
		t.Fatal("Zero of an unwritten chunk materialized it")
	}
	if reads, writes, _, _ := r.Stats(); reads != 0 || writes != 0 {
		t.Fatal("Zero counted as an access")
	}
}

// liveBlocks counts a's live blocks: its start bits.
func liveBlocks(a *Allocator) int {
	n := 0
	for _, leaf := range a.starts {
		if leaf != nil {
			for _, w := range leaf {
				n += bits.OnesCount64(w)
			}
		}
	}
	return n
}
