package nvmeof

import (
	"testing"

	"cxlpool/internal/cxl"
	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

// rig builds an initiator host and a target host over one ToR.
func rig(t testing.TB, media ssdsim.Media) (*sim.Engine, *Initiator, *Target) {
	t.Helper()
	engine := sim.NewEngine(2)
	fabric := netsim.NewFabric("tor", engine)
	tNIC := nicsim.New("target", nicsim.Config{})
	iNIC := nicsim.New("initiator", nicsim.Config{})
	tNIC.AttachFabric(fabric)
	iNIC.AttachFabric(fabric)
	if err := fabric.Attach("target", tNIC.LineRate(), tNIC); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Attach("initiator", iNIC.LineRate(), iNIC); err != nil {
		t.Fatal(err)
	}
	ddr := cxl.DDRTiming()
	ddr.Bandwidth *= 4
	tMem := mem.NewRegion("t-ddr", 0, 1<<24, ddr, nil)
	iMem := mem.NewRegion("i-ddr", 0, 1<<24, ddr, nil)
	ssd := ssdsim.NewWithMedia("nvme0", engine, 1<<26, media)
	tgt, err := NewTarget(engine, tNIC, ssd, tMem, 0)
	if err != nil {
		t.Fatal(err)
	}
	ini, err := NewInitiator(engine, iNIC, iMem, "target", 0)
	if err != nil {
		t.Fatal(err)
	}
	return engine, ini, tgt
}

func TestRemoteWriteReadRoundTrip(t *testing.T) {
	engine, ini, tgt := rig(t, ssdsim.TLCNAND())
	payload := make([]byte, ssdsim.SectorSize)
	copy(payload, "over the fabric")
	var wrote bool
	if err := ini.submit(0, opWrite, 8192, payload, len(payload), func(_ sim.Time, _ []byte, err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		wrote = true
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("write never completed")
	}
	var got []byte
	if err := ini.Read(engine.Now(), 8192, ssdsim.SectorSize, func(_ sim.Time, data []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		// The data slice is the initiator's reusable scratch: copy to
		// retain past the callback.
		got = append([]byte(nil), data...)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunUntil(engine.Now() + 5*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if string(got[:15]) != "over the fabric" {
		t.Fatalf("read back %q", got[:15])
	}
	if tgt.served != 2 || ini.completed != 2 {
		t.Fatalf("served=%d completed=%d", tgt.served, ini.completed)
	}
}

// The paper's core claim: network disaggregation overhead is material,
// and it gets proportionally worse as the media gets faster.
func TestFabricOverheadGrowsWithFasterMedia(t *testing.T) {
	measure := func(media ssdsim.Media) (local, remote float64) {
		// Local baseline.
		engine := sim.NewEngine(1)
		ddr := cxl.DDRTiming()
		ram := mem.NewRegion("ddr", 0, 1<<22, ddr, nil)
		ssd := ssdsim.NewWithMedia("local", engine, 1<<26, media)
		ssd.AttachHostMemory(ram)
		var lsum float64
		var ln int
		now := sim.Time(0)
		for i := 0; i < 30; i++ {
			err := ssd.Submit(now, ssdsim.OpRead, 0, ssdsim.SectorSize, 0, func(c ssdsim.Completion) {
				lsum += float64(c.Latency)
				ln++
			})
			if err != nil {
				t.Fatal(err)
			}
			now += sim.Millisecond
			if _, err := engine.RunUntil(now); err != nil {
				t.Fatal(err)
			}
		}
		// Remote over fabric.
		engine2, ini, _ := rig(t, media)
		var rsum float64
		var rn int
		now = sim.Time(0)
		for i := 0; i < 30; i++ {
			start := now
			if err := ini.Read(now, 0, ssdsim.SectorSize, func(done sim.Time, _ []byte, err error) {
				if err == nil {
					rsum += float64(done - start)
					rn++
				}
			}); err != nil {
				t.Fatal(err)
			}
			now += sim.Millisecond
			if _, err := engine2.RunUntil(now); err != nil {
				t.Fatal(err)
			}
		}
		if ln == 0 || rn == 0 {
			t.Fatal("no completions")
		}
		return lsum / float64(ln), rsum / float64(rn)
	}

	localNAND, remoteNAND := measure(ssdsim.TLCNAND())
	localSCM, remoteSCM := measure(ssdsim.FastSCM())
	nandOverhead := (remoteNAND - localNAND) / localNAND
	scmOverhead := (remoteSCM - localSCM) / localSCM
	if remoteNAND <= localNAND || remoteSCM <= localSCM {
		t.Fatal("remote I/O not slower than local")
	}
	// Fast media suffers proportionally much more from the fabric.
	if scmOverhead < 2*nandOverhead {
		t.Fatalf("SCM overhead %.0f%% not ≫ NAND overhead %.0f%%",
			scmOverhead*100, nandOverhead*100)
	}
	// NVMe-oF adds ~10+us of network to every op.
	if remoteNAND-localNAND < 5e3 {
		t.Fatalf("fabric added only %.1fus", (remoteNAND-localNAND)/1e3)
	}
}

func TestInitiatorValidation(t *testing.T) {
	_, ini, _ := rig(t, ssdsim.TLCNAND())
	if err := ini.Read(0, 0, nicsim.MTU, nil); err == nil {
		t.Fatal("over-MTU I/O accepted")
	}
}

func TestRemoteErrorPropagation(t *testing.T) {
	engine, ini, tgt := rig(t, ssdsim.TLCNAND())
	// Misaligned LBA: the SSD rejects it; the target must respond with
	// an error frame rather than going silent.
	var gotErr error
	var called bool
	if err := ini.Read(0, 123, ssdsim.SectorSize, func(_ sim.Time, _ []byte, err error) {
		called = true
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("error completion never arrived")
	}
	if gotErr == nil {
		t.Fatal("remote error not propagated")
	}
	_ = tgt
}

func TestManyOutstandingIOs(t *testing.T) {
	engine, ini, _ := rig(t, ssdsim.TLCNAND())
	done := 0
	for i := 0; i < 64; i++ {
		if err := ini.Read(0, int64(i)*ssdsim.SectorSize, ssdsim.SectorSize,
			func(_ sim.Time, _ []byte, err error) {
				if err == nil {
					done++
				}
			}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.RunUntil(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if done != 64 {
		t.Fatalf("completed %d/64", done)
	}
}
