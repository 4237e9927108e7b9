package cxl

import (
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// jumboPod returns a two-device pod, one attached host's interleaved
// view of it, an 8 KiB frame buffer and an address in the pool whose
// store chunks that frame has already touched.
func jumboPod(tb testing.TB) (mem.Memory, []byte, mem.Address) {
	tb.Helper()
	p, err := NewPod("jumbo", PodConfig{Devices: 2, PortsPerDevice: 2, DeviceSize: 1 << 20}, sim.NewRand(42))
	if err != nil {
		tb.Fatal(err)
	}
	a, err := p.AttachHost("A")
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, 8<<10)
	addr := p.Devices()[0].Base() + 3*InterleaveGranularity
	if _, err := a.Memory().WriteAt(0, addr, buf); err != nil {
		tb.Fatal(err)
	}
	return a.Memory(), buf, addr
}

// TestInterleaveJumboAllocs pins the pod datapath's allocation budget:
// once its store chunks exist, an interleaved 8 KiB read or write of
// pool memory allocates nothing.
func TestInterleaveJumboAllocs(t *testing.T) {
	m, buf, addr := jumboPod(t)
	now := sim.Time(0)
	for _, tc := range []struct {
		name   string
		access func(sim.Time, mem.Address, []byte) (sim.Duration, error)
	}{{"ReadAt", m.ReadAt}, {"WriteAt", m.WriteAt}} {
		allocs := testing.AllocsPerRun(100, func() {
			now += sim.Microsecond
			if _, err := tc.access(now, addr, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per 8 KiB access, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkInterleave8KRead(b *testing.B) {
	m, buf, addr := jumboPod(b)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer() // the pod's set-up is not part of an access
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadAt(sim.Time(i)*sim.Microsecond, addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterleave8KWrite(b *testing.B) {
	m, buf, addr := jumboPod(b)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer() // the pod's set-up is not part of an access
	for i := 0; i < b.N; i++ {
		if _, err := m.WriteAt(sim.Time(i)*sim.Microsecond, addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}
