// Package bufpool provides size-classed byte-buffer free lists for the
// simulated data plane, mirroring the chunked free-list pattern the sim
// kernel uses for events: steady-state traffic recycles buffers instead
// of allocating, so a million-message run costs a handful of allocations
// instead of a million.
//
// A Pool is deliberately NOT safe for concurrent use. Every simulated
// world is single-threaded on its own engine, so pools are owned the
// same way engines are: one per fabric, endpoint, or connection, never
// shared across goroutines. (Experiments running in parallel each build
// their own world and therefore their own pools.)
//
// # Ownership contract
//
// Get hands the caller exclusive ownership of the returned buffer. The
// buffer stays valid until the owner calls Put, after which any retained
// reference may observe unrelated later traffic — the same "handle is
// valid until recycled" contract the sim kernel pins for events. Put
// accepts any buffer (pooled origin or not) and files it under the
// largest size class that fits; undersized buffers are dropped.
package bufpool

// Size classes are powers of two from one cacheline (64 B, the shm slot
// granularity) to 64 KiB (the largest vSSD/vAccel I/O buffer). Requests
// beyond the largest class fall back to plain allocation.
const (
	minShift = 6  // 64 B
	maxShift = 16 // 64 KiB
	nClasses = maxShift - minShift + 1
)

// MaxClassBytes is the largest pooled buffer capacity; Get requests
// above it always allocate and Put drops them.
const MaxClassBytes = 1 << maxShift

// Pool is a set of per-size-class free lists. The zero value is ready
// to use.
type Pool struct {
	classes [nClasses][][]byte
}

// classFor returns the class index whose capacity is the smallest that
// holds n bytes, or -1 if n exceeds the largest class.
func classFor(n int) int {
	if n > MaxClassBytes {
		return -1
	}
	c := 0
	for (1 << (minShift + c)) < n {
		c++
	}
	return c
}

// classHolding returns the largest class whose capacity is <= c, or -1
// if c is below the smallest class.
func classHolding(c int) int {
	if c < 1<<minShift {
		return -1
	}
	k := nClasses - 1
	for (1 << (minShift + k)) > c {
		k--
	}
	return k
}

// Get returns a buffer of length n with capacity from the smallest
// size class that fits. Recycled buffers are NOT zeroed — contents are
// unspecified and the caller must fully overwrite the buffer (every
// current caller immediately fills it with a DMA read or copy); this
// keeps Get O(1) instead of paying a memclr per message. Requests
// larger than MaxClassBytes are served by plain allocation (and Put
// will drop them back to the GC).
func (p *Pool) Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if l := p.classes[c]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		p.classes[c] = l[:len(l)-1]
		return buf[:n]
	}
	return make([]byte, n, 1<<(minShift+c))
}

// Put recycles a buffer. The caller must not use buf (or any slice
// aliasing its array) afterwards. Buffers smaller than the smallest
// class or larger than MaxClassBytes are dropped.
func (p *Pool) Put(buf []byte) {
	c := classHolding(cap(buf))
	if c < 0 || cap(buf) > MaxClassBytes {
		return
	}
	p.classes[c] = append(p.classes[c], buf[:0])
}
