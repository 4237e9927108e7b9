// nicpool demonstrates the §2/§4.2 NIC-pooling story end to end: a
// pod where one host's NIC fails mid-traffic and the orchestrator
// transparently fails the workload over to a pooled NIC on another
// host, then rebalances when one device runs hot; finally host1 is
// drained and hot-removed for maintenance.
package main

import (
	"fmt"
	"log"

	"cxlpool/internal/core"
	"cxlpool/internal/orch"
	"cxlpool/internal/sim"
)

func main() {
	pod, err := core.NewPod(core.Config{Hosts: 4, NICsPerHost: 1, Seed: 7, AgentPollInterval: 1000})
	if err != nil {
		log.Fatal(err)
	}
	o, err := orch.New(pod, "host0", orch.LocalFirst)
	if err != nil {
		log.Fatal(err)
	}
	if err := o.RegisterAll(); err != nil {
		log.Fatal(err)
	}
	o.EnableRebalance = true

	// host0 and host1 each get a virtual NIC; the local-first policy
	// assigns their own devices initially.
	h0, _ := pod.Host("host0")
	h1, _ := pod.Host("host1")
	v0, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 2048, TxBuffers: 512, RxBuffers: 256})
	if err != nil {
		log.Fatal(err)
	}
	v1, err := o.Allocate(h1, "v1", core.VNICConfig{BufSize: 2048, TxBuffers: 512, RxBuffers: 256})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocated: v0 -> %s, v1 -> %s (policy %s)\n",
		v0.Phys().Name(), v1.Phys().Name(), orch.LocalFirst)

	// A sink host receives all traffic.
	h3, _ := pod.Host("host3")
	sink := core.NewVirtualNIC(h3, "sink", core.VNICConfig{BufSize: 2048, RxBuffers: 512})
	if _, err := sink.Bind(h3, "host3-nic0"); err != nil {
		log.Fatal(err)
	}
	var delivered int
	sink.OnReceive(func(_ sim.Time, _ string, _ []byte) { delivered++ })

	if err := o.Start(); err != nil {
		log.Fatal(err)
	}

	// Both users send steadily.
	payload := make([]byte, 1500)
	sent := 0
	pump := func(v *core.VirtualNIC, gap sim.Duration) {
		var loop func(t sim.Time)
		loop = func(t sim.Time) {
			if t > 30*sim.Millisecond {
				return
			}
			if _, err := v.Send(t, "host3-nic0", payload); err == nil {
				sent++
			}
			pod.Engine.At(t+gap, func() { loop(t + gap) })
		}
		pod.Engine.At(0, func() { loop(0) })
	}
	pump(v0, 30*sim.Microsecond)
	pump(v1, 30*sim.Microsecond)

	// Failure injection: v0's device dies at 10ms.
	pod.Engine.At(10*sim.Millisecond, func() {
		fmt.Printf("[10ms] %s fails\n", v0.Phys().Name())
		v0.Phys().Fail()
	})

	if _, err := pod.Engine.RunUntil(35 * sim.Millisecond); err != nil {
		log.Fatal(err)
	}

	failovers, migrations, _ := o.Stats()
	newDev, _ := o.Assignment("v0")
	fmt.Printf("orchestrator: %d failover(s), %d migration(s)\n", failovers, migrations)
	fmt.Printf("v0 now on %s; downtime %.0fus (PCIe-switch hot-plug would be 50ms)\n",
		newDev, o.FailoverTime.Percentile(50)/1e3)
	fmt.Printf("traffic: %d sent, %d delivered (%.1f%%)\n",
		sent, delivered, 100*float64(delivered)/float64(sent))

	// Maintenance: move every assignment off host1's devices, then
	// hot-remove host1 from the pod (§5 "operational implications").
	moved, err := o.DrainHost("host1")
	if err != nil {
		log.Fatal(err)
	}
	if err := pod.DetachHost("host1"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maintenance: drained host1 (%d assignment(s) moved), hot-removed it; %d hosts remain\n",
		moved, len(pod.Hosts()))
}
