package nvmeof

import (
	"testing"

	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

// TestCommandRoundTripAllocs pins the steady-state allocation budget of
// one remote I/O round trip (initiator submit → target service → SSD →
// response → initiator completion) so the pooled-buffer data plane
// cannot silently regress to per-command allocation.
func TestCommandRoundTripAllocs(t *testing.T) {
	engine, ini, _ := rig(t, ssdsim.TLCNAND())
	payload := make([]byte, ssdsim.SectorSize)
	now := engine.Now()
	onDone := func(_ sim.Time, _ []byte, err error) {
		if err != nil {
			t.Errorf("I/O: %v", err)
		}
	}
	// Warm every scratch buffer and pool with a write+read pair.
	for i := 0; i < 4; i++ {
		if err := ini.submit(now, opWrite, 0, payload, len(payload), onDone); err != nil {
			t.Fatal(err)
		}
		now += sim.Millisecond
		if _, err := engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		if err := ini.Read(now, 0, ssdsim.SectorSize, onDone); err != nil {
			t.Fatal(err)
		}
		now += sim.Millisecond
		if _, err := engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := ini.Read(now, 0, ssdsim.SectorSize, onDone); err != nil {
			t.Fatal(err)
		}
		now += sim.Millisecond
		if _, err := engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("remote read round trip allocates %.1f/op, want <= 2", allocs)
	}
}
