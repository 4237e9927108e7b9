package cxl

import (
	"bytes"
	"fmt"
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// The store path of a pod's interleave must be indistinguishable from
// the per-member split it replaces. These tests build two pods from one
// seed, access one through its own interleave (the store path) and the
// other through an interleave over the same port views wrapped so that
// it must split, and compare everything observable after every access.

// splitOnly hides a PortView behind the mem.Memory interface, which
// forces an interleave over it onto the per-member split.
type splitOnly struct{ mem.Memory }

const (
	diffDevSize = 128 << 10 // two 64 KiB store chunks per device
	diffHosts   = 2
	diffMaxLen  = 64 << 10
	diffOpBytes = 8
	diffMaxOps  = 128
)

// diffSide is one pod of a differential pair and the memories its hosts
// access it through.
type diffSide struct {
	pod  *Pod
	rng  *sim.Rand
	mems []mem.Memory
	buf  []byte
}

type diffPair struct {
	store, split diffSide
	data         []byte
	now          sim.Time
}

func newDiffSide(t *testing.T, devices int, link LinkConfig, seed int64, forceSplit bool) diffSide {
	t.Helper()
	rng := sim.NewRand(seed)
	p, err := NewPod("diff", PodConfig{
		Devices:        devices,
		PortsPerDevice: diffHosts,
		DeviceSize:     diffDevSize,
		HostLink:       link,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := diffSide{pod: p, rng: rng, buf: make([]byte, diffMaxLen)}
	for h := 0; h < diffHosts; h++ {
		att, err := p.AttachHost(fmt.Sprintf("h%d", h))
		if err != nil {
			t.Fatal(err)
		}
		iv := att.Memory().(*Interleave)
		if iv.store == nil {
			t.Fatal("pod interleave is not store-backed")
		}
		if forceSplit {
			members := make([]mem.Memory, devices)
			bases := make([]mem.Address, devices)
			for i := range members {
				members[i] = splitOnly{att.View(i)}
				bases[i] = p.Devices()[i].Base()
			}
			iv = NewInterleaveAt(bases[0], p.Capacity(), members, bases)
			if iv.store != nil {
				t.Fatal("wrapped members still take the store path")
			}
		}
		s.mems = append(s.mems, iv)
	}
	return s
}

func newDiffPair(t *testing.T, devices int, link LinkConfig, seed int64) *diffPair {
	data := make([]byte, diffMaxLen)
	for i := range data {
		data[i] = byte(i*7 + i>>8 + 1)
	}
	return &diffPair{
		store: newDiffSide(t, devices, link, seed, false),
		split: newDiffSide(t, devices, link, seed, true),
		data:  data,
	}
}

// step decodes one diffOpBytes-byte operation, applies it to both pods,
// and fails t on the first difference.
//
//	op[0]     kind: 0-6 write, 7-13 read, 14 fail/repair a device,
//	          15 detach one host's port on a device
//	op[1]     host, device, and shape bits: bit 2 short length (<600 B),
//	          bit 3 stripe-aligned offset, bit 4 line-aligned offset,
//	          bit 5 no clipping (the access may leave the pool)
//	op[2:5]   offset; op[5:7] length; op[7] time step
func (dp *diffPair) step(t *testing.T, i int, op []byte) {
	t.Helper()
	devices := len(dp.store.pod.Devices())
	host := int(op[1]) % diffHosts
	dev := int(op[1]>>1) % devices
	switch kind := op[0] % 16; {
	case kind == 14:
		for _, s := range []diffSide{dp.store, dp.split} {
			if d := s.pod.Devices()[dev]; d.Failed() {
				d.Repair()
			} else {
				d.Fail()
			}
		}
	case kind == 15:
		var errs [2]error
		for j, s := range []diffSide{dp.store, dp.split} {
			att, err := s.pod.Attachment(fmt.Sprintf("h%d", host))
			if err != nil {
				t.Fatal(err)
			}
			errs[j] = att.View(dev).Detach()
		}
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("op %d: detach: store path %v, split %v", i, errs[0], errs[1])
		}
	default:
		capacity := dp.store.pod.Capacity()
		n := (int(op[5]) | int(op[6])<<8) % (diffMaxLen + 1)
		if op[1]&4 != 0 {
			n %= 600
		}
		off := int(op[2]) | int(op[3])<<8 | int(op[4])<<16
		if op[1]&32 == 0 {
			off %= capacity - n + 1
		}
		switch {
		case op[1]&8 != 0:
			off &^= InterleaveGranularity - 1
		case op[1]&16 != 0:
			off &^= mem.CachelineSize - 1
		}
		if op[7] == 255 {
			dp.now -= 700 // timestamps need not be monotone
		} else if op[7] >= 64 {
			dp.now += sim.Time(op[7]) * 37
		}
		base := dp.store.pod.Devices()[0].Base()
		a := base + mem.Address(off)
		write := kind < 7
		var lat [2]sim.Duration
		var errs [2]error
		for j, s := range []diffSide{dp.store, dp.split} {
			buf := s.buf[:n]
			m := s.mems[host]
			if write {
				copy(buf, dp.data[i%251:])
				lat[j], errs[j] = m.WriteAt(dp.now, a, buf)
			} else {
				for k := range buf {
					buf[k] = 0xEE
				}
				lat[j], errs[j] = m.ReadAt(dp.now, a, buf)
			}
		}
		if lat[0] != lat[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("op %d %x (write %v, host %d, off %d, n %d): store path %v, %v; split %v, %v",
				i, op, write, host, off, n, lat[0], errs[0], lat[1], errs[1])
		}
		if !write && !bytes.Equal(dp.store.buf[:n], dp.split.buf[:n]) {
			t.Fatalf("op %d %x: read bytes differ (off %d, n %d)", i, op, off, n)
		}
		dp.compareMedia(t, i, off-InterleaveGranularity, off+n+InterleaveGranularity)
	}
	dp.compare(t, i)
}

// compareMedia fails t unless both pods hold the same bytes at pool
// offsets [lo, hi), read from each device's media.
func (dp *diffPair) compareMedia(t *testing.T, i, lo, hi int) {
	t.Helper()
	lo, hi = max(lo, 0), min(hi, dp.store.pod.Capacity())
	if lo >= hi {
		return
	}
	a, b := make([]byte, hi-lo), make([]byte, hi-lo)
	poolPeek(t, dp.store.pod, lo, a)
	poolPeek(t, dp.split.pod, lo, b)
	if !bytes.Equal(a, b) {
		t.Fatalf("op %d: media bytes differ in pool range [%d,%d)", i, lo, hi)
	}
}

// poolPeek reads pool offsets [off, off+len(buf)) from the devices'
// media: pool stripe s lives on device s%n at that device's stripe s/n.
func poolPeek(t *testing.T, p *Pod, off int, buf []byte) {
	t.Helper()
	n := len(p.Devices())
	for len(buf) > 0 {
		s, within := off/InterleaveGranularity, off%InterleaveGranularity
		k := min(InterleaveGranularity-within, len(buf))
		d := p.Devices()[s%n]
		local := d.Base() + mem.Address((s/n)*InterleaveGranularity+within)
		if err := d.Media().Peek(local, buf[:k]); err != nil {
			t.Fatal(err)
		}
		buf, off = buf[k:], off+k
	}
}

// compare fails t unless both pods agree on every link counter, every
// media region's counters, and the next draw of the pod RNG.
func (dp *diffPair) compare(t *testing.T, i int) {
	t.Helper()
	a, b := dp.store, dp.split
	for h := 0; h < diffHosts; h++ {
		attA, _ := a.pod.Attachment(fmt.Sprintf("h%d", h))
		attB, _ := b.pod.Attachment(fmt.Sprintf("h%d", h))
		for d := range a.pod.Devices() {
			la, lb := attA.View(d).Link(), attB.View(d).Link()
			txA, rxA := la.BytesMoved()
			txB, rxB := lb.BytesMoved()
			if txA != txB || rxA != rxB || la.CongestionEvents() != lb.CongestionEvents() {
				t.Fatalf("op %d: host %d device %d link: store path tx %d rx %d cong %d; split tx %d rx %d cong %d",
					i, h, d, txA, rxA, la.CongestionEvents(), txB, rxB, lb.CongestionEvents())
			}
		}
	}
	for d, devA := range a.pod.Devices() {
		ma, mb := devA.Media(), b.pod.Devices()[d].Media()
		ra, wa, bra, bwa := ma.Stats()
		rb, wb, brb, bwb := mb.Stats()
		if ra != rb || wa != wb || bra != brb || bwa != bwb || ma.QueueingDelay() != mb.QueueingDelay() {
			t.Fatalf("op %d: device %d media stats: store path %d/%d/%d/%d; split %d/%d/%d/%d",
				i, d, ra, wa, bra, bwa, rb, wb, brb, bwb)
		}
	}
	if x, y := a.rng.Uint64(), b.rng.Uint64(); x != y {
		t.Fatalf("op %d: pod RNG next draw: store path %d, split %d", i, x, y)
	}
}

// runDiff interprets prog: three header bytes (device count, link
// width, seed) and then diffOpBytes bytes per operation.
func runDiff(t *testing.T, prog []byte) {
	if len(prog) < 3 {
		return
	}
	devices := 1 + int(prog[0])%4
	link := X8Gen5
	if prog[1]&1 != 0 {
		link = X16Gen5
	}
	dp := newDiffPair(t, devices, link, int64(prog[2]))
	ops := prog[3:]
	i := 0
	for ; len(ops) >= diffOpBytes && i < diffMaxOps; i++ {
		dp.step(t, i, ops[:diffOpBytes])
		ops = ops[diffOpBytes:]
	}
	dp.compareMedia(t, i, 0, dp.store.pod.Capacity())
}

// randomProg returns a program of ops operations drawn from seed.
func randomProg(seed int64, ops int) []byte {
	r := sim.NewRand(seed)
	prog := make([]byte, 3+ops*diffOpBytes)
	for i := range prog {
		prog[i] = byte(r.Uint64())
	}
	// Keep faults and detaches rare enough that most accesses succeed.
	for i := 3; i+diffOpBytes <= len(prog); i += diffOpBytes {
		if prog[i]%16 >= 14 && r.Intn(4) != 0 {
			prog[i] -= 2 + byte(r.Intn(8))
		}
	}
	return prog
}

func TestInterleaveStoreMatchesSplit(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runDiff(t, randomProg(seed, 96)) })
	}
}

func FuzzInterleaveStore(f *testing.F) {
	for seed := int64(100); seed < 108; seed++ {
		f.Add(randomProg(seed, 24))
	}
	// A stripe-aligned 8 KiB write and read back on four ×16 devices.
	f.Add([]byte{3, 1, 9,
		0, 8, 0, 1, 0, 0, 32, 0,
		7, 8, 0, 1, 0, 0, 32, 80})
	f.Fuzz(func(t *testing.T, prog []byte) { runDiff(t, prog) })
}
