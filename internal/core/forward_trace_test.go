package core

import (
	"fmt"
	"testing"

	"cxlpool/internal/accelsim"
	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

// TestForwarderTracePinned pins the pooled SSD and accelerator
// transport end to end. A fixed 20-step trace sends one SSD operation
// (writes and reads of 1–3 sectors) and one accelerator job (Compression
// and Crypto alternating) per step from a diskless user host; every
// device fails at step 12 and is repaired before step 15, so error
// replies are pinned too. Every submit's cost and error, every
// callback's time, length, byte sum and error, each device's Stats and
// Latency sum, the engine's event count and the next RNG draw must match
// the literals below.
func TestForwarderTracePinned(t *testing.T) {
	p, err := NewPod(Config{Hosts: 3, NICsPerHost: 0, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	h2, _ := p.Host("host2")
	ssd, err := h1.AddSSD("host1-ssd0", 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	comp := accelsim.New("comp0", p.Engine, accelsim.Compression)
	crypt := accelsim.New("crypt0", p.Engine, accelsim.Crypto)
	vs := NewVirtualSSD(h0, "vs", VSSDConfig{BufSize: 16 << 10, Buffers: 4})
	vc := NewVirtualAccel(h0, "vc", VAccelConfig{BufSize: 16 << 10, Buffers: 2})
	vk := NewVirtualAccel(h0, "vk", VAccelConfig{BufSize: 16 << 10, Buffers: 2})
	if _, err := vs.Bind(h1, ssd); err != nil {
		t.Fatal(err)
	}
	if _, err := vc.Bind(h1, comp); err != nil {
		t.Fatal(err)
	}
	if _, err := vk.Bind(h2, crypt); err != nil {
		t.Fatal(err)
	}

	var got []string
	record := func(tag string, step int) func(sim.Time, []byte, error) {
		return func(now sim.Time, data []byte, err error) {
			sum := 0
			for _, b := range data {
				sum += int(b)
			}
			got = append(got, fmt.Sprintf("%s#%d t=%d n=%d sum=%d err=%v", tag, step, now, len(data), sum, err))
		}
	}
	submitted := func(tag string, step int, d sim.Duration, err error) {
		got = append(got, fmt.Sprintf("submit %s#%d d=%d err=%v", tag, step, d, err))
	}
	const gap = 40 * sim.Microsecond
	for step := 0; step < 20; step++ {
		now := sim.Time(step) * gap
		if _, err := p.Engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		switch step {
		case 12:
			ssd.Fail()
			comp.Fail()
			crypt.Fail()
		case 15:
			ssd.Repair()
			comp.Repair()
			crypt.Repair()
		}
		// SSD: even steps write 1–3 sectors, odd steps read back the
		// previous step's extent.
		sectors := 1 + (step/2)%3
		lba := int64((step/2)%5) * 4 * ssdsim.SectorSize
		if step%2 == 0 {
			data := make([]byte, sectors*ssdsim.SectorSize)
			for i := range data {
				data[i] = byte(i*7 + step*13)
			}
			d, err := vs.Write(now, lba, data, record("ssd-w", step))
			submitted("ssd-w", step, d, err)
		} else {
			d, err := vs.Read(now, lba, sectors*ssdsim.SectorSize, record("ssd-r", step))
			submitted("ssd-r", step, d, err)
		}
		// Accelerators: inputs of 1–5 KiB, kinds alternating.
		input := make([]byte, 1024*(1+step%5))
		for i := range input {
			input[i] = byte(i*3 + step)
		}
		v, tag := vc, "comp"
		if step%2 == 1 {
			v, tag = vk, "crypt"
		}
		d, err := v.Submit(now, input, record(tag, step))
		submitted(tag, step, d, err)
	}
	if _, err := p.Engine.RunUntil(20*gap + 2*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []struct {
		name  string
		stats func() (uint64, uint64, uint64, uint64)
		sum   float64
	}{
		{"vs", vs.Stats, vs.Latency.Sum()},
		{"vc", vc.Stats, vc.Latency.Sum()},
		{"vk", vk.Stats, vk.Latency.Sum()},
	} {
		a, b, c, d := dev.stats()
		got = append(got, fmt.Sprintf("stats %s %d %d %d %d latency=%g", dev.name, a, b, c, d, dev.sum))
	}
	got = append(got, fmt.Sprintf("events=%d rand=%d", p.Engine.Processed(), p.Engine.Rand().Uint64()))

	want := []string{
		"submit ssd-w#0 d=459 err=<nil>",
		"submit comp#0 d=488 err=<nil>",
		"comp#0 t=6216 n=512 sum=32768 err=<nil>",
		"ssd-w#0 t=30125 n=0 sum=0 err=<nil>",
		"submit ssd-r#1 d=196 err=<nil>",
		"submit crypt#1 d=421 err=<nil>",
		"crypt#1 t=48827 n=2048 sum=132096 err=<nil>",
		"submit ssd-w#2 d=537 err=<nil>",
		"submit comp#2 d=590 err=<nil>",
		"comp#2 t=88627 n=1536 sum=99840 err=<nil>",
		"ssd-r#1 t=120102 n=4096 sum=522240 err=<nil>",
		"submit ssd-r#3 d=204 err=<nil>",
		"submit crypt#3 d=534 err=<nil>",
		"ssd-w#2 t=124500 n=0 sum=0 err=<nil>",
		"crypt#3 t=128655 n=4096 sum=268288 err=<nil>",
		"submit ssd-w#4 d=598 err=<nil>",
		"submit comp#4 d=682 err=<nil>",
		"comp#4 t=168542 n=2560 sum=163840 err=<nil>",
		"submit ssd-r#5 d=193 err=<nil>",
		"submit crypt#5 d=417 err=<nil>",
		"crypt#5 t=207753 n=1024 sum=66048 err=<nil>",
		"ssd-r#3 t=214108 n=8192 sum=1044480 err=<nil>",
		"ssd-w#4 t=218511 n=0 sum=0 err=<nil>",
		"submit ssd-w#6 d=467 err=<nil>",
		"submit comp#6 d=500 err=<nil>",
		"comp#6 t=248341 n=1024 sum=66560 err=<nil>",
		"ssd-w#6 t=272246 n=0 sum=0 err=<nil>",
		"submit ssd-r#7 d=197 err=<nil>",
		"submit crypt#7 d=441 err=<nil>",
		"crypt#7 t=288862 n=3072 sum=201216 err=<nil>",
		"ssd-r#5 t=308776 n=12288 sum=1566720 err=<nil>",
		"submit ssd-w#8 d=531 err=<nil>",
		"submit comp#8 d=601 err=<nil>",
		"comp#8 t=328248 n=2048 sum=131072 err=<nil>",
		"submit ssd-r#9 d=197 err=<nil>",
		"submit crypt#9 d=473 err=<nil>",
		"ssd-r#7 t=361777 n=4096 sum=522240 err=<nil>",
		"ssd-w#8 t=364097 n=0 sum=0 err=<nil>",
		"crypt#9 t=369311 n=5120 sum=330240 err=<nil>",
		"submit ssd-w#10 d=588 err=<nil>",
		"submit comp#10 d=612 err=<nil>",
		"comp#10 t=408098 n=512 sum=33280 err=<nil>",
		"submit ssd-r#11 d=200 err=<nil>",
		"submit crypt#11 d=430 err=<nil>",
		"crypt#11 t=448430 n=2048 sum=134144 err=<nil>",
		"ssd-r#9 t=454831 n=8192 sum=1044480 err=<nil>",
		"ssd-w#10 t=458195 n=0 sum=0 err=<nil>",
		"submit ssd-w#12 d=459 err=<nil>",
		"submit comp#12 d=518 err=<nil>",
		"ssd-w#12 t=481324 n=0 sum=0 err=core: remote SSD I/O failed",
		"comp#12 t=481811 n=0 sum=0 err=core: remote accelerator job failed",
		"submit ssd-r#13 d=200 err=<nil>",
		"submit crypt#13 d=531 err=<nil>",
		"crypt#13 t=521766 n=0 sum=0 err=core: remote accelerator job failed",
		"ssd-r#13 t=522552 n=0 sum=0 err=core: remote SSD I/O failed",
		"ssd-r#11 t=549245 n=12288 sum=1566720 err=<nil>",
		"submit ssd-w#14 d=540 err=<nil>",
		"submit comp#14 d=620 err=<nil>",
		"ssd-w#14 t=560927 n=0 sum=0 err=core: remote SSD I/O failed",
		"comp#14 t=561421 n=0 sum=0 err=core: remote accelerator job failed",
		"submit ssd-r#15 d=201 err=<nil>",
		"submit crypt#15 d=404 err=<nil>",
		"crypt#15 t=607934 n=1024 sum=71168 err=<nil>",
		"submit ssd-w#16 d=600 err=<nil>",
		"submit comp#16 d=636 err=<nil>",
		"comp#16 t=648742 n=1024 sum=65536 err=<nil>",
		"submit ssd-r#17 d=203 err=<nil>",
		"submit crypt#17 d=445 err=<nil>",
		"crypt#17 t=689071 n=3072 sum=198144 err=<nil>",
		"ssd-r#15 t=694401 n=8192 sum=1044480 err=<nil>",
		"ssd-w#16 t=698810 n=0 sum=0 err=<nil>",
		"submit ssd-w#18 d=459 err=<nil>",
		"submit comp#18 d=535 err=<nil>",
		"comp#18 t=729746 n=2048 sum=133120 err=<nil>",
		"ssd-w#18 t=752642 n=0 sum=0 err=<nil>",
		"submit ssd-r#19 d=202 err=<nil>",
		"submit crypt#19 d=484 err=<nil>",
		"crypt#19 t=769348 n=5120 sum=335360 err=<nil>",
		"ssd-r#17 t=788227 n=12288 sum=1566720 err=<nil>",
		"ssd-r#19 t=841766 n=4096 sum=522240 err=<nil>",
		"stats vs 20 20 3 0 latency=1.212359e+06",
		"stats vc 10 10 2 0 latency=66560",
		"stats vk 10 10 1 0 latency=78191",
		"events=10966 rand=10826034587287484071",
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i, g, w)
		}
	}
}
