package core

import (
	"errors"
	"fmt"
	"testing"

	"cxlpool/internal/accelsim"
	"cxlpool/internal/sim"
)

func accelRig(t testing.TB, kind accelsim.Kind) (*Pod, *Host, *Host, *accelsim.Accel) {
	t.Helper()
	p, err := NewPod(Config{Hosts: 2, NICsPerHost: 0, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	a := accelsim.New("accel0", p.Engine, kind)
	return p, h0, h1, a
}

func TestVirtualAccelOffloadWithIntegrity(t *testing.T) {
	p, h0, h1, accel := accelRig(t, accelsim.Compression)
	v := NewVirtualAccel(h0, "va", VAccelConfig{})
	if _, err := v.Bind(h1, accel); err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 4096)
	for i := range input {
		input[i] = byte(i * 11)
	}
	var got []byte
	var doneAt sim.Time
	if _, err := v.Submit(0, input, func(now sim.Time, out []byte, err error) {
		if err != nil {
			t.Errorf("offload failed: %v", err)
		}
		// out is the vAccel's reusable scratch: copy to retain.
		got = append([]byte(nil), out...)
		doneAt = now
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("job never completed")
	}
	want := accelsim.Transform(input, accel.OutputLen(len(input)))
	if len(got) != len(want) {
		t.Fatalf("output len %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output corrupted at byte %d (pooled path)", i)
		}
	}
	if doneAt <= 0 {
		t.Fatal("no completion time")
	}
	sub, comp, errs, _ := v.stats()
	if sub != 1 || comp != 1 || errs != 0 {
		t.Fatalf("stats %d/%d/%d", sub, comp, errs)
	}
}

func TestVirtualAccelSixteenToOneSharing(t *testing.T) {
	// §5's deployment shape: many users, one device. All jobs complete,
	// queueing visible in the tail.
	p, err := NewPod(Config{Hosts: 8, NICsPerHost: 0, Seed: 29, DeviceSize: 128 << 20, SharedSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.Host("host0")
	accel := accelsim.New("shared", p.Engine, accelsim.Crypto)
	handles := make([]*VirtualAccel, 8)
	for i := range handles {
		h, _ := p.Host(fmt.Sprintf("host%d", i))
		handles[i] = NewVirtualAccel(h, fmt.Sprintf("va%d", i), VAccelConfig{Buffers: 4})
		if _, err := handles[i].Bind(owner, accel); err != nil {
			t.Fatal(err)
		}
	}
	input := make([]byte, 16384)
	done := 0
	for round := 0; round < 4; round++ {
		for _, v := range handles {
			if _, err := v.Submit(p.Engine.Now(), input, func(_ sim.Time, _ []byte, err error) {
				if err == nil {
					done++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Engine.RunUntil(p.Engine.Now() + 2*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if done != 32 {
		t.Fatalf("completed %d/32 shared jobs", done)
	}
	for _, v := range handles {
		if v.completed != 4 {
			t.Fatalf("%s completed %d/4 jobs", v.name, v.completed)
		}
	}
}

func TestVirtualAccelBackpressureAndValidation(t *testing.T) {
	p, h0, h1, accel := accelRig(t, accelsim.Compression)
	v := NewVirtualAccel(h0, "va", VAccelConfig{Buffers: 1, BufSize: 4096})
	if _, err := v.Submit(0, []byte("x"), nil); !errors.Is(err, ErrNotBound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := v.Bind(h1, accel); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Submit(0, nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := v.Submit(0, make([]byte, 8192), nil); !errors.Is(err, ErrIOTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if _, err := v.Submit(0, []byte("job1"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Submit(0, []byte("job2"), nil); !errors.Is(err, ErrNoIOBuffer) {
		t.Fatalf("err = %v", err)
	}
	if _, err := p.Engine.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Submit(p.Engine.Now(), []byte("job3"), nil); err != nil {
		t.Fatalf("buffer not recycled: %v", err)
	}
}

func TestVirtualAccelFailureAndRemap(t *testing.T) {
	p, h0, h1, accel := accelRig(t, accelsim.Compression)
	spare := accelsim.New("accel1", p.Engine, accelsim.Compression)
	v := NewVirtualAccel(h0, "va", VAccelConfig{})
	if _, err := v.Bind(h1, accel); err != nil {
		t.Fatal(err)
	}
	accel.Fail()
	var gotErr error
	if _, err := v.Submit(0, []byte("doomed"), func(_ sim.Time, _ []byte, err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("device failure not propagated")
	}
	// Remap to the spare on host0 (local now).
	if _, err := v.Remap(h0, spare); err != nil {
		t.Fatal(err)
	}
	var ok bool
	now := p.Engine.Now()
	if _, err := v.Submit(now, []byte("recovered"), func(_ sim.Time, out []byte, err error) {
		ok = err == nil && len(out) > 0
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(now + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("job after remap failed")
	}
	_, _, _, remaps := v.stats()
	if remaps != 1 {
		t.Fatalf("remaps = %d", remaps)
	}
}

func TestVirtualAccelForwardingOverheadSmall(t *testing.T) {
	// Offload latency for a 64 KiB compression job is ~10us of compute;
	// pooling adds channel hops + CXL staging. Compare against a local
	// submit of the same job.
	p, h0, h1, accel := accelRig(t, accelsim.Compression)
	localDev := accelsim.New("local", p.Engine, accelsim.Compression)
	localDev.AttachHostMemory(h1.space)
	input := make([]byte, 65536)

	var localLat sim.Duration
	if err := localDev.Submit(0, 0, 0x10000, len(input), func(j accelsim.Job) {
		localLat = j.Latency
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	v := NewVirtualAccel(h0, "va", VAccelConfig{})
	if _, err := v.Bind(h1, accel); err != nil {
		t.Fatal(err)
	}
	now := p.Engine.Now()
	for i := 0; i < 20; i++ {
		if _, err := v.Submit(now, input, nil); err != nil {
			t.Fatal(err)
		}
		now += 100 * sim.Microsecond
		if _, err := p.Engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	}
	pooled := v.Latency.Percentile(50)
	overhead := (pooled - float64(localLat)) / float64(localLat)
	// Staging 64K in and 32K out through x8 CXL links adds a few us on
	// a ~10us job; must stay under 40%.
	if overhead > 0.40 {
		t.Fatalf("pooling overhead %.0f%% (local %.1fus, pooled %.1fus)",
			overhead*100, float64(localLat)/1e3, pooled/1e3)
	}
	if overhead <= 0 {
		t.Fatal("pooled cheaper than local: impossible")
	}
}
