package bufpool

import "testing"

func TestGetPutRecycles(t *testing.T) {
	var p Pool
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/128", len(a), cap(a))
	}
	for i := range a {
		a[i] = 0xAA
	}
	p.Put(a)
	b := p.Get(70) // same 128 B class as the recycled buffer
	if &b[:1][0] != &a[:1][0] {
		t.Fatal("Get after Put did not recycle the buffer")
	}
	if len(b) != 70 {
		t.Fatalf("recycled Get(70) length %d", len(b))
	}
	gets, puts, misses := p.gets, p.puts, p.misses
	if gets != 2 || puts != 1 || misses != 1 {
		t.Fatalf("stats = (%d,%d,%d), want (2,1,1)", gets, puts, misses)
	}
}

func TestSizeClasses(t *testing.T) {
	var p Pool
	for _, tc := range []struct{ n, wantCap int }{
		{1, 64}, {64, 64}, {65, 128}, {4096, 4096}, {4097, 8192}, {1 << 16, 1 << 16},
	} {
		b := p.Get(tc.n) //lint:allow bufown size-class probe: buffers are measured, deliberately never recycled
		if len(b) != tc.n || cap(b) != tc.wantCap {
			t.Errorf("Get(%d): len=%d cap=%d, want cap %d", tc.n, len(b), cap(b), tc.wantCap)
		}
	}
}

func TestOversizeFallsBack(t *testing.T) {
	var p Pool
	b := p.Get(MaxClassBytes + 1)
	if len(b) != MaxClassBytes+1 {
		t.Fatalf("oversize Get length %d", len(b))
	}
	p.Put(b) // dropped, not filed
	if puts := p.puts; puts != 0 {
		t.Fatal("oversize Put should be dropped")
	}
}

func TestPutForeignBuffer(t *testing.T) {
	var p Pool
	// A non-power-of-two capacity files under the largest class <= cap.
	foreign := make([]byte, 100, 100)
	p.Put(foreign)
	b := p.Get(64) //lint:allow bufown probes which buffer the free list hands back; recycling it is not the point under test
	if cap(b) != 100 {
		t.Fatalf("expected foreign buffer (cap 100) recycled, got cap %d", cap(b))
	}
	// Undersized buffers are dropped.
	p.Put(make([]byte, 10))
	if gets, puts := p.gets, p.puts; gets != 1 || puts != 1 {
		t.Fatalf("stats (%d,%d), want (1,1)", gets, puts)
	}
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	var p Pool
	p.Put(p.Get(4096))
	allocs := testing.AllocsPerRun(1000, func() {
		b := p.Get(4096)
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f/op, want 0", allocs)
	}
}
