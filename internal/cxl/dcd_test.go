package cxl

import (
	"errors"
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// dcdPod builds a pod with a per-host capacity quota.
func dcdPod(t *testing.T, quota int) *Pod {
	t.Helper()
	p, err := NewPod("dcd", PodConfig{
		Devices:        2,
		PortsPerDevice: 8,
		DeviceSize:     1 << 22,
		SharedSize:     1 << 20,
		QuotaPerHost:   quota,
	}, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"A", "B"} {
		if _, err := p.AttachHost(h); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// The DCD isolation property: capacity freed by one tenant and
// reallocated to another is sanitized — the new tenant reads zeros, not
// the previous tenant's data.
func TestDCDSanitizeOnReallocation(t *testing.T) {
	p := dcdPod(t, 0)
	a := p.hosts["A"]
	b := p.hosts["B"]

	addr, err := a.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("TENANT-A-SECRET-KEY-MATERIAL")
	if _, err := a.Memory().WriteAt(0, addr, secret); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	// B allocates; first-fit hands back the same range.
	addr2, err := b.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 != addr {
		t.Fatalf("allocator did not reuse the range (%#x vs %#x); test premise broken",
			uint64(addr2), uint64(addr))
	}
	got := make([]byte, len(secret))
	if _, err := b.Memory().ReadAt(1000, addr2, got); err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != 0 {
			t.Fatalf("tenant B read tenant A's data at byte %d: %q", i, got)
		}
	}
}

func TestDCDFreshAllocationIsZeroed(t *testing.T) {
	p := dcdPod(t, 0)
	a := p.hosts["A"]
	// Dirty the media directly (simulating factory/debug state).
	dev := p.Devices()[0]
	junk := make([]byte, 1024)
	for i := range junk {
		junk[i] = 0xAB
	}
	if err := dev.media.Poke(dev.Base()+mem.Address(p.sharedSize), junk); err != nil {
		t.Fatal(err)
	}
	addr, err := a.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	if _, err := a.Memory().ReadAt(0, addr, got); err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != 0 {
			t.Fatalf("fresh allocation dirty at %d", i)
		}
	}
}

func TestDCDQuotaEnforced(t *testing.T) {
	p := dcdPod(t, 1<<20) // 1 MiB per host
	a := p.hosts["A"]
	b := p.hosts["B"]
	addr, err := a.Alloc(1 << 19) // 512 KiB
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1 << 19); err != nil { // another 512 KiB: exactly at quota
		t.Fatal(err)
	}
	if _, err := a.Alloc(64); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota alloc err = %v", err)
	}
	// Quota is per host: B is unaffected.
	if _, err := b.Alloc(1 << 19); err != nil {
		t.Fatalf("B blocked by A's quota: %v", err)
	}
	// Freeing restores headroom.
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1 << 19); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if a.allocTotal != 1<<20 {
		t.Fatalf("accounting: %d", a.allocTotal)
	}
}

func TestDCDQuotaUnlimitedByDefault(t *testing.T) {
	p := dcdPod(t, 0)
	a := p.hosts["A"]
	// Grab most of the pool: no quota in the way (only capacity).
	if _, err := a.Alloc(6 << 20); err != nil {
		t.Fatal(err)
	}
}

// Sanitize addresses pool media through the pod's store, so it needs no
// attached host, and it zeroes exactly the range asked for: the
// neighbouring bytes on every device keep their contents.
func TestPodSanitizeBeforeAttach(t *testing.T) {
	const devices, devSize = 3, 1 << 16
	p, err := NewPod("san", PodConfig{Devices: devices, PortsPerDevice: 2, DeviceSize: devSize}, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]byte, devSize)
	for i := range dirty {
		dirty[i] = 0xAB
	}
	for _, d := range p.Devices() {
		if err := d.media.Poke(d.Base(), dirty); err != nil {
			t.Fatal(err)
		}
	}
	// Unaligned at both ends, across stripes, devices and a 64 KiB
	// store chunk boundary.
	const from, n = 1000, 70000
	base := p.Devices()[0].Base()
	if err := p.Sanitize(base+from, n); err != nil {
		t.Fatalf("sanitize before any attach: %v", err)
	}
	want := func(off int) byte {
		if off >= from && off < from+n {
			return 0
		}
		return 0xAB
	}
	pool := make([]byte, devices*devSize)
	poolPeek(t, p, 0, pool)
	for off, b := range pool {
		if b != want(off) {
			t.Fatalf("pool byte %d = %#x, want %#x", off, b, want(off))
		}
	}
	// A host attached afterwards reads the same through its interleave.
	a, err := p.AttachHost("A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Memory().ReadAt(0, base, pool); err != nil {
		t.Fatal(err)
	}
	for off, b := range pool {
		if b != want(off) {
			t.Fatalf("interleaved read of pool byte %d = %#x, want %#x", off, b, want(off))
		}
	}
	if err := p.Sanitize(base+devices*devSize-10, 11); !errors.Is(err, mem.ErrOutOfRange) {
		t.Fatalf("sanitize past the pool: err = %v", err)
	}
	if err := p.Sanitize(base-1, 2); !errors.Is(err, mem.ErrOutOfRange) {
		t.Fatalf("sanitize below the pool: err = %v", err)
	}
}
