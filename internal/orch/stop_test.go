package orch

import (
	"testing"

	"cxlpool/internal/core"
	"cxlpool/internal/sim"
)

// A monitor sweep already sitting in the sim queue when Stop is called
// must not migrate: the device failure is injected one tick before the
// stop, so the next sweep would fail the vNIC over if the stop were not
// honored.
func TestStopSuppressesQueuedSweeps(t *testing.T) {
	p, o := rig(t, 3, 1, LeastUtilized)
	h0, _ := p.Host("host0")
	v, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	first := v.Phys().Name()
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the loops run, then fail the device and stop immediately
	// after: sweep + publish events for the next interval are already
	// queued at that point.
	p.Engine.At(2*sim.Millisecond, func() { v.Phys().Fail() })
	p.Engine.At(2*sim.Millisecond+sim.Microsecond, func() { o.Stop() })
	if _, err := p.Engine.RunUntil(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	failovers, migrations, sweepsAtStop := o.Stats()
	if failovers != 0 || migrations != 0 {
		t.Fatalf("control plane acted after Stop: failovers=%d migrations=%d", failovers, migrations)
	}
	if dev, _ := o.Assignment("v0"); dev != first {
		t.Fatalf("assignment changed to %q after Stop", dev)
	}
	// And the queue is quiescent: running further adds no sweeps.
	if _, err := p.Engine.RunUntil(40 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, _, sweeps := o.Stats(); sweeps != sweepsAtStop {
		t.Fatalf("sweeps advanced from %d to %d while stopped", sweepsAtStop, sweeps)
	}
}

// A stopped orchestrator must restart cleanly: the pending failure is
// picked up by the restarted loops, and the restart does not double the
// sweep cadence (stale first-run events must stay dead).
func TestRestartResumesAtSingleCadence(t *testing.T) {
	p, o := rig(t, 3, 1, LeastUtilized)
	h0, _ := p.Host("host0")
	v, err := o.Allocate(h0, "v0", core.VNICConfig{BufSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	first := v.Phys().Name()
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err == nil {
		t.Fatal("double Start of a running orchestrator accepted")
	}
	p.Engine.At(2*sim.Millisecond, func() {
		v.Phys().Fail()
		o.Stop()
	})
	restartAt := 5 * sim.Millisecond
	p.Engine.At(restartAt, func() {
		if err := o.Start(); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	var sweepsAtRestart uint64
	p.Engine.At(restartAt+sim.Microsecond, func() { _, _, sweepsAtRestart = o.Stats() })
	horizon := 15 * sim.Millisecond
	if _, err := p.Engine.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	// The failure that predated the stop is handled after restart.
	failovers, _, sweeps := o.Stats()
	if failovers != 1 {
		t.Fatalf("failovers = %d after restart, want 1", failovers)
	}
	if dev, _ := o.Assignment("v0"); dev == first {
		t.Fatal("vNIC still on the failed device after restart")
	}
	// Single cadence: sweeps over the post-restart window must be close
	// to window/interval — doubled loops would produce ~2x.
	window := horizon - restartAt
	expect := uint64(window / monitorInterval)
	ran := sweeps - sweepsAtRestart
	if ran > expect+expect/4 {
		t.Fatalf("sweeps after restart = %d, expected <= ~%d: stale loop still running", ran, expect)
	}
	if ran < expect/2 {
		t.Fatalf("sweeps after restart = %d, expected >= ~%d: restart did not resume", ran, expect/2)
	}
}
