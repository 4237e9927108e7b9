package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cxlpool/internal/accelsim"
	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

// fwdRig drives one pooled device (a VirtualSSD, a VirtualAccel or a
// VirtualNIC) on host0, with two backing devices: device 0 on host1,
// device 1 on host2.
type fwdRig struct {
	pod   *Pod
	hosts []*Host
	dev   interface {
		bound() (owner *Host, phys bool)
		stats() (submitted, completed, errs, remaps uint64)
	}
	bind  func(i int) (sim.Duration, error)
	remap func(i int) (sim.Duration, error)
	// op issues the i-th operation of a self-checking sequence; done
	// reports its error and whether its result bytes were right.
	op func(now sim.Time, i int, done func(err error, verified bool)) (sim.Duration, error)
}

func fwdHosts(t *testing.T, nics, shared int) (*Pod, []*Host) {
	t.Helper()
	p, err := NewPod(Config{Hosts: 3, NICsPerHost: nics, SharedSize: shared, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*Host, 3)
	for i := range hosts {
		hosts[i], err = p.Host(fmt.Sprintf("host%d", i))
		if err != nil {
			t.Fatal(err)
		}
	}
	return p, hosts
}

func fwdPattern(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*5 + seed*17 + 1)
	}
	return b
}

// ssdFwdRig: even ops write sector i/2, odd ops read it back.
func ssdFwdRig(t *testing.T, shared int) *fwdRig {
	p, hosts := fwdHosts(t, 0, shared)
	var ssds []*ssdsim.SSD
	for _, h := range hosts[1:] {
		s, err := h.AddSSD(h.Name()+"-ssd0", 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		ssds = append(ssds, s)
	}
	v := NewVirtualSSD(hosts[0], "vs", VSSDConfig{})
	return &fwdRig{
		pod: p, hosts: hosts, dev: v,
		bind:  func(i int) (sim.Duration, error) { return v.Bind(hosts[i+1], ssds[i]) },
		remap: func(i int) (sim.Duration, error) { return v.Remap(hosts[i+1], ssds[i]) },
		op: func(now sim.Time, i int, done func(error, bool)) (sim.Duration, error) {
			lba := int64(i/2) * ssdsim.SectorSize
			want := fwdPattern(i/2, ssdsim.SectorSize)
			if i%2 == 0 {
				return v.Write(now, lba, want, func(_ sim.Time, _ []byte, err error) { done(err, err == nil) })
			}
			return v.Read(now, lba, ssdsim.SectorSize, func(_ sim.Time, data []byte, err error) {
				done(err, bytes.Equal(data, want))
			})
		},
	}
}

// accelFwdRig: every op is a 4 KiB homomorphic-encryption job (slow
// enough, ~100 us, to remap under); its output is checked against
// accelsim.Transform.
func accelFwdRig(t *testing.T, shared int) *fwdRig {
	p, hosts := fwdHosts(t, 0, shared)
	accels := []*accelsim.Accel{
		accelsim.New("accel0", p.Engine, accelsim.HomomorphicEncryption),
		accelsim.New("accel1", p.Engine, accelsim.HomomorphicEncryption),
	}
	v := NewVirtualAccel(hosts[0], "va", VAccelConfig{BufSize: 4096})
	return &fwdRig{
		pod: p, hosts: hosts, dev: v,
		bind:  func(i int) (sim.Duration, error) { return v.Bind(hosts[i+1], accels[i]) },
		remap: func(i int) (sim.Duration, error) { return v.Remap(hosts[i+1], accels[i]) },
		op: func(now sim.Time, i int, done func(error, bool)) (sim.Duration, error) {
			in := fwdPattern(i, 4096)
			return v.Submit(now, in, func(_ sim.Time, out []byte, err error) {
				done(err, err == nil && bytes.Equal(out, accelsim.Transform(in, v.phys.OutputLen(len(in)))))
			})
		},
	}
}

// vnicFwdRig returns a rig for a vNIC sized by cfg. Its op i is a
// frame that host0's own NIC sends from host memory to the vNIC's
// current NIC, so the vNIC only receives: its RX buffers are posted and
// consumed while no TX of its own is in flight. done fires on delivery.
func vnicFwdRig(cfg VNICConfig) func(t *testing.T, shared int) *fwdRig {
	return func(t *testing.T, shared int) *fwdRig {
		p, hosts := fwdHosts(t, 1, shared)
		src, err := hosts[0].NIC("host0-nic0")
		if err != nil {
			t.Fatal(err)
		}
		v := NewVirtualNIC(hosts[0], "vn", cfg)
		frame := func(i int) []byte {
			b := fwdPattern(i, 256)
			b[0] = byte(i)
			return b
		}
		dones := map[byte]func(error, bool){}
		v.OnReceive(func(_ sim.Time, _ string, payload []byte) {
			if done := dones[payload[0]]; done != nil {
				delete(dones, payload[0])
				done(nil, bytes.Equal(payload, frame(int(payload[0]))))
			}
		})
		nic := func(i int) string { return hosts[i+1].Name() + "-nic0" }
		return &fwdRig{
			pod: p, hosts: hosts, dev: v,
			bind:  func(i int) (sim.Duration, error) { return v.Bind(hosts[i+1], nic(i)) },
			remap: func(i int) (sim.Duration, error) { return v.Remap(hosts[i+1], nic(i)) },
			op: func(now sim.Time, i int, done func(error, bool)) (sim.Duration, error) {
				if v.Phys() == nil {
					return 0, ErrNotBound
				}
				dones[byte(i)] = done
				d, err := hosts[0].cache.NTStore(now, HostDDRBase, frame(i))
				if err != nil {
					return 0, err
				}
				sd, err := src.Transmit(now+d, HostDDRBase, 256, v.Phys().Name(), now)
				return d + sd, err
			},
		}
	}
}

// fwdRigs lists the pooled devices. aborts marks the forwarded ones,
// whose operations outstanding at a rebind fail back to their callers.
var fwdRigs = []struct {
	name   string
	rig    func(t *testing.T, shared int) *fwdRig
	aborts bool
}{
	{"ssd", ssdFwdRig, true},
	{"accel", accelFwdRig, true},
	{"vnic", vnicFwdRig(VNICConfig{}), false},
}

// stats reads a forwarder's counters.
func (f *forwarder[P]) stats() (submitted, completed, errs, remaps uint64) {
	return f.submitted, f.completed, f.errs, f.remaps
}

// stats reads a vNIC's counters: sent, delivered, TX errors, remaps.
func (v *VirtualNIC) stats() (submitted, completed, errs, remaps uint64) {
	return v.Stats()
}

// bound reports the serving host and whether a backing device is set.
func (b *binding[P]) bound() (owner *Host, phys bool) {
	return b.owner, any(b.phys) != any(*new(P))
}

// runTo advances the rig's engine to t.
func (r *fwdRig) runTo(t *testing.T, at sim.Time) {
	t.Helper()
	if _, err := r.pod.Engine.RunUntil(at); err != nil {
		t.Fatal(err)
	}
}

// A remap with an operation outstanding returns every shared-segment
// byte of the old binding: its channel pair and all its buffer slots,
// including an aborted operation's. A vNIC's operation is an inbound
// frame, so its binding has RX buffers posted and no TX in flight.
func TestForwarderRemapReturnsSegment(t *testing.T) {
	for _, tc := range fwdRigs {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig(t, 0)
			if _, err := r.bind(0); err != nil {
				t.Fatal(err)
			}
			free := r.pod.sharedAlloc.FreeBytes()
			now := sim.Time(0)
			for k := 1; k <= 4; k++ {
				if _, err := r.op(now, 2*k, func(error, bool) {}); err != nil {
					t.Fatal(err)
				}
				if _, err := r.remap(k % 2); err != nil {
					t.Fatal(err)
				}
				if got := r.pod.sharedAlloc.FreeBytes(); got != free {
					t.Fatalf("remap %d: shared segment free %d B, want %d (leaked %d B)", k, got, free, free-got)
				}
			}
			// Stale completions from the old devices land and are dropped.
			now += 2 * sim.Millisecond
			r.runTo(t, now)
			if got := r.pod.sharedAlloc.FreeBytes(); got != free {
				t.Fatalf("after drain: shared segment free %d B, want %d", got, free)
			}
			_, completed, errs, remaps := r.dev.stats()
			if remaps != 4 {
				t.Fatalf("remaps=%d, want 4", remaps)
			}
			if tc.aborts && (completed != 0 || errs != 4) {
				t.Fatalf("stats completed=%d errs=%d, want 0/4", completed, errs)
			}
			// Frames 2 and 4 went to the NIC the vNIC left; 1 and 3 to
			// the one it serves from at the end.
			if !tc.aborts && completed != 2 {
				t.Fatalf("vNIC delivered %d frames, want 2", completed)
			}
		})
	}
}

// A bind that fails at any of its steps gives back what it took and
// leaves the device cleanly unbound. The forwarded devices' buffer pools
// do not fit a 256 KiB segment; the vNIC fails at each of its four
// steps in turn: channel, TX pool, RX pool and RX posting (2,000
// buffers for a 1,024-slot ring).
func TestForwarderFailedBindUnbinds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rig    func(t *testing.T, shared int) *fwdRig
		shared int
		want   string // the failing step, in the bind error
	}{
		{"ssd", ssdFwdRig, 256 << 10, "vSSD buffer pool"},
		{"accel", accelFwdRig, 256 << 10, "vAccel buffer pool"},
		{"vnic/channel", vnicFwdRig(VNICConfig{}), 8 << 10, "allocating channel"},
		{"vnic/tx-pool", vnicFwdRig(VNICConfig{}), 300 << 10, "vNIC TX pool"},
		{"vnic/rx-pool", vnicFwdRig(VNICConfig{}), 900 << 10, "vNIC RX pool"},
		{"vnic/rx-posting", vnicFwdRig(VNICConfig{BufSize: 2048, RxBuffers: 2000}), 0, "RX ring full"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig(t, tc.shared)
			free := r.pod.sharedAlloc.FreeBytes()
			if _, err := r.bind(0); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("bind err = %v, want a failure at %q", err, tc.want)
			}
			if got := r.pod.sharedAlloc.FreeBytes(); got != free {
				t.Fatalf("failed bind: shared segment free %d B, want %d (leaked %d B)", got, free, free-got)
			}
			if owner, phys := r.dev.bound(); owner != nil || phys {
				t.Fatal("failed bind left the device bound")
			}
			if _, err := r.op(0, 0, nil); !errors.Is(err, ErrNotBound) {
				t.Fatalf("op after failed bind: err = %v, want ErrNotBound", err)
			}
		})
	}
}

// A remap after the owner has started an operation on the device, but
// before the device completes it, aborts exactly that operation. Two
// operations complete on the old binding first, so its completion
// channel's cursor is ahead of the new one's: the old device's late
// completion must not reach the freed channel (whose memory the new
// binding reuses), and every later operation completes with the right
// bytes.
func TestForwarderRemapMidOperation(t *testing.T) {
	for _, tc := range fwdRigs {
		if !tc.aborts {
			continue // a vNIC has no operation to abort
		}
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig(t, 0)
			if _, err := r.bind(0); err != nil {
				t.Fatal(err)
			}
			now := sim.Time(0)
			ok := 0
			run := func(first, n int) {
				for i := first; i < first+n; i++ {
					if _, err := r.op(now, i, func(err error, verified bool) {
						if err != nil || !verified {
							t.Errorf("op %d: err=%v verified=%v", i, err, verified)
							return
						}
						ok++
					}); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					now += 200 * sim.Microsecond
					r.runTo(t, now)
				}
			}
			run(0, 2)
			owner := r.hosts[1].agent
			forwarded := owner.forwarded
			var abortErr error
			aborted := 0
			if _, err := r.op(now, 100, func(err error, _ bool) { abortErr = err; aborted++ }); err != nil {
				t.Fatal(err)
			}
			// Step until the owner's agent has handed the op to the device.
			for start := now; owner.forwarded == forwarded; {
				now += 100
				if now > start+20*sim.Microsecond {
					t.Fatal("owner never forwarded the operation")
				}
				r.runTo(t, now)
			}
			if aborted != 0 {
				t.Fatal("operation completed before the remap; the test needs it in the device")
			}
			if _, err := r.remap(1); err != nil {
				t.Fatal(err)
			}
			if aborted != 1 || abortErr == nil {
				t.Fatalf("remap delivered %d aborts (err %v), want 1", aborted, abortErr)
			}
			const later = 8
			run(2, later)
			if ok != 2+later {
				t.Fatalf("%d of %d operations completed", ok, 2+later)
			}
			if aborted != 1 {
				t.Fatalf("aborted operation called back %d times", aborted)
			}
			submitted, completed, errs, remaps := r.dev.stats()
			if submitted != 3+later || completed != 2+later || errs != 1 || remaps != 1 {
				t.Fatalf("stats submitted=%d completed=%d errs=%d remaps=%d, want %d/%d/1/1",
					submitted, completed, errs, remaps, 3+later, 2+later)
			}
		})
	}
}
