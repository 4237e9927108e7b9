package stack

import (
	"testing"

	"cxlpool/internal/cxl"
	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/sim"
)

// runWithWorkers runs a fixed overload against a server with n workers
// and returns achieved MOPS.
func runWithWorkers(t *testing.T, workers int) float64 {
	t.Helper()
	engine := sim.NewEngine(3)
	fabric := netsim.NewFabric("tor", engine)
	sNIC := nicsim.New("server", nicsim.Config{})
	cNIC := nicsim.New("client", nicsim.Config{})
	sNIC.AttachFabric(fabric)
	cNIC.AttachFabric(fabric)
	if err := fabric.Attach("server", sNIC.LineRate(), sNIC); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Attach("client", cNIC.LineRate(), cNIC); err != nil {
		t.Fatal(err)
	}
	ddr := cxl.DDRTiming()
	ddr.Bandwidth *= 8
	size := 1 << 23
	sr := mem.NewRegion("s", 0, size, ddr, nil)
	cr := mem.NewRegion("c", 0, size, ddr, nil)
	sPool := NewBufferPool(sr, sr, 0, size)
	cPool := NewBufferPool(cr, cr, 0, size)
	if _, err := NewServerWorkers(engine, sNIC, sPool, 75, 512, workers); err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(engine, cNIC, cPool, "server", 75, 512, sim.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	const dur = 4 * sim.Millisecond
	cl.Window = dur
	cl.Start(0, 8e6, dur) // 8 MOPS offered: far past one core's ~4.3
	engine.SetEventLimit(100_000_000)
	if _, err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	return float64(cl.ResponsesInWindow()) / dur.Seconds() / 1e6
}

func TestWorkerScalingAblation(t *testing.T) {
	one := runWithWorkers(t, 1)
	two := runWithWorkers(t, 2)
	if one > 4.8 {
		t.Fatalf("1 worker achieved %.2fM, above the single-core ceiling", one)
	}
	if two < one*1.5 {
		t.Fatalf("2 workers achieved %.2fM vs %.2fM; no scaling", two, one)
	}
}

func TestNewServerWorkersValidation(t *testing.T) {
	engine := sim.NewEngine(1)
	nic := nicsim.New("x", nicsim.Config{})
	r := mem.NewRegion("m", 0, 1<<20, mem.Timing{}, nil)
	pool := NewBufferPool(r, r, 0, 1<<20)
	if _, err := NewServerWorkers(engine, nic, pool, 64, 8, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

// Echo traffic at the largest IMIX packet size through the CXL buffer
// path: every request answered, no errors — the "general-purpose
// computing" traffic the paper targets (§4.1).
func TestIMIXTrafficOverCXLBuffers(t *testing.T) {
	engine := sim.NewEngine(9)
	fabric := netsim.NewFabric("tor", engine)
	sNIC := nicsim.New("server", nicsim.Config{})
	cNIC := nicsim.New("client", nicsim.Config{})
	sNIC.AttachFabric(fabric)
	cNIC.AttachFabric(fabric)
	if err := fabric.Attach("server", sNIC.LineRate(), sNIC); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Attach("client", cNIC.LineRate(), cNIC); err != nil {
		t.Fatal(err)
	}
	size := 1 << 23
	mhd := cxl.NewMHD("pool", 0, size, 2, sim.NewRand(2))
	dv, err := mhd.Connect(cxl.X8Gen5)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := mhd.Connect(cxl.X8Gen5)
	if err != nil {
		t.Fatal(err)
	}
	sPool := NewBufferPool(cv, dv, 0, size)
	ddr := cxl.DDRTiming()
	cr := mem.NewRegion("c", 0, size, ddr, nil)
	cPool := NewBufferPool(cr, cr, 0, size)
	// Buffers sized for the largest IMIX packet.
	if _, err := NewServer(engine, sNIC, sPool, 1500, 256); err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(engine, cNIC, cPool, "server", 1500, 256, sim.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	cl.Start(0, 500_000, 3*sim.Millisecond)
	if _, err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if cl.Responses() != cl.Sent() {
		t.Fatalf("IMIX run lost packets: %d/%d", cl.Responses(), cl.Sent())
	}
}
