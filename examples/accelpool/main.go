// accelpool demonstrates the §5 "soft accelerator disaggregation"
// story: one compression accelerator deployed at a 1:16 ratio —
// sixteen hosts offload 4 KiB jobs to it through the CXL pool (each
// through a core.VirtualAccel) instead of each rack slot carrying an
// idle accelerator.
//
// The example measures per-host offload latency as the device is shared
// more widely, showing the utilization-vs-queueing tradeoff the pooling
// orchestrator navigates.
package main

import (
	"fmt"
	"log"

	"cxlpool/internal/accelsim"
	"cxlpool/internal/core"
	"cxlpool/internal/metrics"
	"cxlpool/internal/sim"
)

func main() {
	const (
		hosts = 16
		job   = 4 << 10
	)
	pod, err := core.NewPod(core.Config{
		Hosts:       hosts,
		NICsPerHost: 0,
		DeviceSize:  128 << 20,
		SharedSize:  64 << 20,
		Seed:        11,
	})
	if err != nil {
		log.Fatal(err)
	}
	// One accelerator in the whole pod, attached to host0.
	owner, _ := pod.Host("host0")
	accel := accelsim.New("accel0", pod.Engine, accelsim.Compression)
	fmt.Printf("1 accelerator, %d hosts, ratio 1:%d\n", hosts, hosts)

	// Every host gets a virtual handle on the same physical device.
	handles := make([]*core.VirtualAccel, hosts)
	for i := 0; i < hosts; i++ {
		h, err := pod.Host(fmt.Sprintf("host%d", i))
		if err != nil {
			log.Fatal(err)
		}
		v := core.NewVirtualAccel(h, fmt.Sprintf("vaccel%d", i), core.VAccelConfig{BufSize: job})
		if _, err := v.Bind(owner, accel); err != nil {
			log.Fatal(err)
		}
		handles[i] = v
	}

	// Offered load sweep: each host offloads one 4 KiB job every 400 us.
	input := make([]byte, job)
	for i := range input {
		input[i] = byte(i)
	}
	for _, sharers := range []int{1, 4, 16} {
		lat := metrics.NewRecorder(4096)
		start := pod.Engine.Now()
		end := start + 20*sim.Millisecond
		for i := 0; i < sharers; i++ {
			v := handles[i]
			var loop func(t sim.Time)
			loop = func(t sim.Time) {
				if t > end {
					return
				}
				if _, err := v.Submit(t, input, func(now sim.Time, _ []byte, err error) {
					if err == nil {
						lat.Record(float64(now - t))
					}
				}); err != nil {
					log.Fatal(err)
				}
				pod.Engine.At(t+400*sim.Microsecond, func() { loop(t + 400*sim.Microsecond) })
			}
			pod.Engine.At(start, func() { loop(start) })
		}
		if _, err := pod.Engine.RunUntil(end + 5*sim.Millisecond); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%2d sharing host(s): %4d ops, p50=%.0fus p99=%.0fus\n",
			sharers, lat.Count(), lat.Percentile(50)/1e3, lat.Percentile(99)/1e3)
	}
	fmt.Println("one device serves the rack; without pooling, 15 of 16 accelerators would sit idle")
}
