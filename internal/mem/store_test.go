package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// backed returns the bytes s holds in backing arrays.
func backed(s *Store) int {
	total := 0
	for _, c := range s.chunks {
		total += len(c.b)
	}
	return total
}

// fill returns n bytes of v.
func fill(n int, v byte) []byte { return bytes.Repeat([]byte{v}, n) }

// expectStore fails t unless s reads as want from end to end.
func expectStore(t *testing.T, s *Store, want []byte) {
	t.Helper()
	got := make([]byte, s.Size())
	s.CopyOut(0, got)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("store byte %d = %#x, want %#x", i, got[i], want[i])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestStoreFirstWriteBacksTouchedPages(t *testing.T) {
	s := NewStore(1, 256<<20, 256<<20)
	// An 8 KiB buffer 1000 bytes into chunk 5 touches three pages.
	s.CopyIn(5*chunkBytes+1000, fill(8<<10, 0xab))
	if total := backed(s); total != 12<<10 {
		t.Fatalf("one 8 KiB write backs %d bytes, want %d", total, 12<<10)
	}
	if c := s.chunks[5]; c.off != 0 || len(c.b) != 12<<10 {
		t.Fatalf("chunk 5 extent [%d,%d), want [0,12288)", c.off, c.off+len(c.b))
	}
}

func TestStoreWriteAtChunkStartBacksWholeChunk(t *testing.T) {
	s := NewStore(1, 4*chunkBytes, chunkBytes)
	s.CopyIn(3*chunkBytes, fill(100, 1))
	if c := s.chunks[3]; c.off != 0 || len(c.b) != chunkBytes {
		t.Fatalf("write at chunk offset 0 backs [%d,%d), want the whole chunk", c.off, c.off+len(c.b))
	}
	// A write running on from chunk 1 into chunk 2 backs chunk 2 whole
	// and only the touched page of chunk 1.
	s.CopyIn(2*chunkBytes-100, fill(200, 2))
	if c1, c2 := s.chunks[1], s.chunks[2]; c1.off != chunkBytes-pageBytes || len(c1.b) != pageBytes || c2.off != 0 || len(c2.b) != chunkBytes {
		t.Fatalf("run-on write backs [%d,%d) of chunk 1 and [%d,%d) of chunk 2", c1.off, c1.off+len(c1.b), c2.off, c2.off+len(c2.b))
	}
}

func TestStoreExtentGrowsToUnion(t *testing.T) {
	s := NewStore(1, chunkBytes, chunkBytes)
	want := make([]byte, chunkBytes)
	write := func(off, n int, v byte) {
		s.CopyIn(off, fill(n, v))
		copy(want[off:off+n], fill(n, v))
	}
	for _, step := range []struct {
		off, n  int
		lo, hi  int
		comment string
	}{
		{30000, 100, 7 * pageBytes, 8 * pageBytes, "first write: its page"},
		{9000, 10, 2 * pageBytes, 8 * pageBytes, "below the extent: page-aligned union"},
		{31000, 2000, 2 * pageBytes, 9 * pageBytes, "straddling the top: union"},
		{50000, 10, 0, chunkBytes, "union above half a chunk: whole chunk"},
	} {
		write(step.off, step.n, byte(step.off))
		if c := s.chunks[0]; c.off != step.lo || c.off+len(c.b) != step.hi {
			t.Fatalf("%s: extent [%d,%d), want [%d,%d)", step.comment, c.off, c.off+len(c.b), step.lo, step.hi)
		}
		expectStore(t, s, want)
	}
}

func TestStoreReadsZeroOutsideExtent(t *testing.T) {
	s := NewStore(1, 2*chunkBytes, chunkBytes)
	s.CopyIn(30000, fill(100, 0xff))
	// Wholly outside the extent, inside the chunk.
	buf := fill(1000, 7)
	s.CopyOut(1000, buf)
	if !bytes.Equal(buf, make([]byte, 1000)) {
		t.Fatal("read below the extent is not zero")
	}
	// Straddling both edges of the extent and the chunk edge.
	buf = fill(chunkBytes, 7)
	s.CopyOut(20000, buf)
	want := make([]byte, chunkBytes)
	copy(want[10000:10100], fill(100, 0xff))
	if i := firstDiff(buf, want); i >= 0 {
		t.Fatalf("byte %d of a read across the extent = %#x, want %#x", 20000+i, buf[i], want[i])
	}
}

// FuzzStoreExtents drives random CopyIn, CopyOut and Zero calls on a
// 2-member store of three chunks (the last one short) and checks every
// byte against a flat array. It also checks that each chunk's extent is
// page-aligned and stays inside its chunk, and that a chunk no write
// reached stays unbacked.
func FuzzStoreExtents(f *testing.F) {
	op := func(kind byte, off, n int) []byte {
		b := []byte{kind, 0, 0, 0, 0, 0}
		b[1], b[2], b[3] = byte(off>>16), byte(off>>8), byte(off)
		binary.BigEndian.PutUint16(b[4:], uint16(n))
		return b
	}
	f.Add(op(0, 1000, 8192))
	f.Add(append(op(0, chunkBytes-100, 9216), op(1, chunkBytes-4096, 8192)...))
	f.Add(append(append(op(0, 30000, 100), op(0, 9000, 10)...), op(2, 0, 40000)...))
	f.Add(append(op(0, 2*chunkBytes+5, 300), op(0, 2*chunkBytes+20000, 10)...))
	f.Add(append(op(2, 0, 60000), op(1, 100, 60000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const members, memberSize = 2, 5 * chunkBytes / 4
		s := NewStore(members, memberSize, 256)
		model := make([]byte, s.Size())
		written := make([]bool, 3)
		var step byte
		for ; len(data) >= 6; data = data[6:] {
			step++
			off := (int(data[1])<<16 | int(data[2])<<8 | int(data[3])) % s.Size()
			n := int(binary.BigEndian.Uint16(data[4:])) % (s.Size() - off + 1)
			switch data[0] % 3 {
			case 0:
				buf := fill(n, step)
				s.CopyIn(off, buf)
				copy(model[off:], buf)
				for ci := off >> chunkShift; n > 0 && ci <= (off+n-1)>>chunkShift; ci++ {
					written[ci] = true
				}
			case 1:
				buf := fill(n, 0x5a)
				s.CopyOut(off, buf)
				if i := firstDiff(buf, model[off:off+n]); i >= 0 {
					t.Fatalf("step %d: read byte %d = %#x, want %#x", step, off+i, buf[i], model[off+i])
				}
			case 2:
				s.Zero(off, n)
				clear(model[off : off+n])
			}
			for ci := range written {
				var c chunk
				if s.chunks != nil {
					c = s.chunks[ci]
				}
				if !written[ci] && c.b != nil {
					t.Fatalf("step %d: chunk %d backed before any write reached it", step, ci)
				}
				end, size := c.off+len(c.b), s.chunkLen(ci)
				if c.b != nil && (c.off < 0 || end > size || c.off%pageBytes != 0 || (end%pageBytes != 0 && end != size)) {
					t.Fatalf("step %d: chunk %d extent [%d,%d) is not page-aligned inside [0,%d)", step, ci, c.off, end, size)
				}
			}
		}
		expectStore(t, s, model)
	})
}
