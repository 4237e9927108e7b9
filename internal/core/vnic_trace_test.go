package core

import (
	"fmt"
	"testing"

	"cxlpool/internal/nicsim"
	"cxlpool/internal/sim"
)

// TestVNICTracePinned pins the pooled NIC transport end to end. A fixed
// 20-step trace has host0's vNIC va (served by host1's NIC) send two
// frames a step to host2's local vNIC vb, which answers with one. va is
// remapped to host3's NIC at step 8, with frames in flight both ways,
// and to host0's own NIC at step 17, which puts it on the local fast
// path. va's NIC and vb's NIC fail at step 12 and are repaired before
// step 15. The TX buffers of va's sends that fail on the owner never
// come back, so va runs dry until the step-17 rebind allocates a fresh
// pool; the segment keeps the loss. Every Send's cost and error, both
// Remaps, every delivery's time, source, length and byte sum, the
// shared segment's free bytes after each step, both vNICs' stats, the
// engine's event count and the next RNG draw must match the literals
// below.
func TestVNICTracePinned(t *testing.T) {
	p, err := NewPod(Config{Hosts: 4, NICsPerHost: 1, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*Host, 4)
	nics := make([]*nicsim.NIC, 4)
	for i := range hosts {
		hosts[i], _ = p.Host(fmt.Sprintf("host%d", i))
		nics[i], _ = hosts[i].NIC(fmt.Sprintf("host%d-nic0", i))
	}
	va := NewVirtualNIC(hosts[0], "va", VNICConfig{BufSize: 2048, TxBuffers: 4, RxBuffers: 6, ChannelSlots: 64})
	vb := NewVirtualNIC(hosts[2], "vb", VNICConfig{BufSize: 2048, TxBuffers: 4, RxBuffers: 6})
	if _, err := va.Bind(hosts[1], "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	if _, err := vb.Bind(hosts[2], "host2-nic0"); err != nil {
		t.Fatal(err)
	}

	var got []string
	record := func(tag string) func(sim.Time, string, []byte) {
		return func(now sim.Time, src string, payload []byte) {
			sum := 0
			for _, b := range payload {
				sum += int(b)
			}
			got = append(got, fmt.Sprintf("rx %s t=%d src=%s n=%d sum=%d", tag, now, src, len(payload), sum))
		}
	}
	va.OnReceive(record("va"))
	vb.OnReceive(record("vb"))
	frame := func(step, k, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*11 + step*7 + k)
		}
		return b
	}
	const gap = 20 * sim.Microsecond
	for step := 0; step < 20; step++ {
		now := sim.Time(step) * gap
		if _, err := p.Engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		switch step {
		case 12:
			nics[3].Fail()
			nics[2].Fail()
		case 15:
			nics[3].Repair()
			nics[2].Repair()
		}
		for k := 0; k < 2; k++ {
			d, err := va.Send(now, "host2-nic0", frame(step, k, 64*(1+(step+k)%7)))
			got = append(got, fmt.Sprintf("send va#%d.%d d=%d err=%v", step, k, d, err))
		}
		d, err := vb.Send(now, va.Phys().Name(), frame(step, 9, 100+37*(step%5)))
		got = append(got, fmt.Sprintf("send vb#%d d=%d err=%v", step, d, err))
		// The remaps land right after this step's sends, so frames are
		// in flight both ways.
		var to *Host
		switch step {
		case 8:
			to = hosts[3]
		case 17:
			to = hosts[0]
		}
		if to != nil {
			d, err := va.Remap(to, to.Name()+"-nic0")
			got = append(got, fmt.Sprintf("remap va#%d d=%d err=%v", step, d, err))
		}
		got = append(got, fmt.Sprintf("free#%d %d", step, p.sharedAlloc.FreeBytes()))
	}
	if _, err := p.Engine.RunUntil(20*gap + 2*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*VirtualNIC{va, vb} {
		sent, delivered, txErrors, remaps := v.Stats()
		got = append(got, fmt.Sprintf("stats %s %d %d %d %d", v.Name(), sent, delivered, txErrors, remaps))
	}
	got = append(got, fmt.Sprintf("free %d events=%d rand=%d", p.sharedAlloc.FreeBytes(), p.Engine.Processed(), p.Engine.Rand().Uint64()))

	want := []string{
		"send va#0.0 d=397 err=<nil>",
		"send va#0.1 d=394 err=<nil>",
		"send vb#0 d=324 err=<nil>",
		"free#0 16694784",
		"rx va t=2910 src=host2-nic0 n=100 sum=12086",
		"rx vb t=3056 src=host1-nic0 n=64 sum=7584",
		"rx vb t=3642 src=host1-nic0 n=128 sum=15552",
		"send va#1.0 d=401 err=<nil>",
		"send va#1.1 d=410 err=<nil>",
		"send vb#1 d=326 err=<nil>",
		"free#1 16694784",
		"rx vb t=23201 src=host1-nic0 n=128 sum=15552",
		"rx va t=23246 src=host2-nic0 n=137 sum=17372",
		"rx vb t=23804 src=host1-nic0 n=192 sum=24032",
		"send va#2.0 d=402 err=<nil>",
		"send va#2.1 d=416 err=<nil>",
		"send vb#2 d=337 err=<nil>",
		"free#2 16694784",
		"rx va t=43032 src=host2-nic0 n=174 sum=21595",
		"rx vb t=43356 src=host1-nic0 n=192 sum=23904",
		"rx vb t=43948 src=host1-nic0 n=256 sum=32640",
		"send va#3.0 d=390 err=<nil>",
		"send va#3.1 d=413 err=<nil>",
		"send vb#3 d=331 err=<nil>",
		"free#3 16694784",
		"rx va t=62787 src=host2-nic0 n=211 sum=26803",
		"rx vb t=62914 src=host1-nic0 n=256 sum=32640",
		"rx vb t=63501 src=host1-nic0 n=320 sum=40608",
		"send va#4.0 d=402 err=<nil>",
		"send va#4.1 d=407 err=<nil>",
		"send vb#4 d=333 err=<nil>",
		"free#4 16694784",
		"rx vb t=83031 src=host1-nic0 n=320 sum=40480",
		"rx va t=83105 src=host2-nic0 n=248 sum=31460",
		"rx vb t=83626 src=host1-nic0 n=384 sum=48448",
		"send va#5.0 d=397 err=<nil>",
		"send va#5.1 d=413 err=<nil>",
		"send vb#5 d=331 err=<nil>",
		"free#5 16694784",
		"rx va t=103082 src=host2-nic0 n=100 sum=12514",
		"rx vb t=103336 src=host1-nic0 n=384 sum=48704",
		"rx vb t=103918 src=host1-nic0 n=448 sum=56672",
		"send va#6.0 d=397 err=<nil>",
		"send va#6.1 d=403 err=<nil>",
		"send vb#6 d=330 err=<nil>",
		"free#6 16694784",
		"rx va t=122861 src=host2-nic0 n=137 sum=17559",
		"rx vb t=122936 src=host1-nic0 n=448 sum=56800",
		"rx vb t=123401 src=host1-nic0 n=64 sum=8288",
		"send va#7.0 d=403 err=<nil>",
		"send va#7.1 d=401 err=<nil>",
		"send vb#7 d=334 err=<nil>",
		"free#7 16694784",
		"rx vb t=142927 src=host1-nic0 n=64 sum=8416",
		"rx va t=143191 src=host2-nic0 n=174 sum=22053",
		"rx vb t=143527 src=host1-nic0 n=128 sum=15936",
		"send va#8.0 d=391 err=<nil>",
		"send va#8.1 d=405 err=<nil>",
		"send vb#8 d=336 err=<nil>",
		"remap va#8 d=20000 err=<nil>",
		"free#8 16690688",
		"send va#9.0 d=406 err=<nil>",
		"send va#9.1 d=403 err=<nil>",
		"send vb#9 d=331 err=<nil>",
		"free#9 16690688",
		"rx va t=183196 src=host2-nic0 n=248 sum=31948",
		"rx vb t=183338 src=host3-nic0 n=192 sum=24352",
		"rx vb t=183941 src=host3-nic0 n=256 sum=32640",
		"send va#10.0 d=403 err=<nil>",
		"send va#10.1 d=411 err=<nil>",
		"send vb#10 d=323 err=<nil>",
		"free#10 16690688",
		"rx vb t=202944 src=host3-nic0 n=256 sum=32640",
		"rx va t=202923 src=host2-nic0 n=100 sum=12686",
		"rx vb t=203523 src=host3-nic0 n=320 sum=41440",
		"send va#11.0 d=396 err=<nil>",
		"send va#11.1 d=413 err=<nil>",
		"send vb#11 d=336 err=<nil>",
		"free#11 16690688",
		"rx vb t=223083 src=host3-nic0 n=320 sum=41312",
		"rx va t=223234 src=host2-nic0 n=137 sum=17490",
		"rx vb t=223662 src=host3-nic0 n=384 sum=49088",
		"send va#12.0 d=399 err=<nil>",
		"send va#12.1 d=410 err=<nil>",
		"send vb#12 d=335 err=pcie: device failed: host2-nic0",
		"free#12 16690688",
		"send va#13.0 d=406 err=<nil>",
		"send va#13.1 d=404 err=<nil>",
		"send vb#13 d=334 err=pcie: device failed: host2-nic0",
		"free#13 16690688",
		"send va#14.0 d=0 err=core: out of TX buffers (completions lagging)",
		"send va#14.1 d=0 err=core: out of TX buffers (completions lagging)",
		"send vb#14 d=333 err=pcie: device failed: host2-nic0",
		"free#14 16690688",
		"send va#15.0 d=0 err=core: out of TX buffers (completions lagging)",
		"send va#15.1 d=0 err=core: out of TX buffers (completions lagging)",
		"send vb#15 d=325 err=<nil>",
		"free#15 16690688",
		"rx va t=303214 src=host2-nic0 n=100 sum=12858",
		"send va#16.0 d=0 err=core: out of TX buffers (completions lagging)",
		"send va#16.1 d=0 err=core: out of TX buffers (completions lagging)",
		"send vb#16 d=332 err=<nil>",
		"free#16 16690688",
		"rx va t=323059 src=host2-nic0 n=137 sum=17677",
		"send va#17.0 d=0 err=core: out of TX buffers (completions lagging)",
		"send va#17.1 d=0 err=core: out of TX buffers (completions lagging)",
		"send vb#17 d=337 err=<nil>",
		"remap va#17 d=20000 err=<nil>",
		"free#17 16682496",
		"send va#18.0 d=330 err=<nil>",
		"send va#18.1 d=337 err=<nil>",
		"send vb#18 d=334 err=<nil>",
		"free#18 16682496",
		"rx va t=362766 src=host2-nic0 n=211 sum=26942",
		"rx vb t=362783 src=host0-nic0 n=320 sum=41120",
		"rx vb t=362844 src=host0-nic0 n=384 sum=49472",
		"send va#19.0 d=336 err=<nil>",
		"send va#19.1 d=339 err=<nil>",
		"send vb#19 d=330 err=<nil>",
		"free#19 16682496",
		"rx va t=382782 src=host2-nic0 n=248 sum=31900",
		"rx vb t=382809 src=host0-nic0 n=384 sum=49728",
		"rx vb t=382860 src=host0-nic0 n=448 sum=57312",
		"stats va 32 15 4 2",
		"stats vb 17 26 3 0",
		"free 16682496 events=21180 rand=14642771792401182415",
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
