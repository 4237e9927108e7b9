package bwplan

import (
	"testing"
)

// The §5 examples verbatim: 200G NIC -> 8 lanes, 400G NIC -> 16, six
// 5 GB/s SSDs -> 8, eight 400G NICs -> >100 lanes (infeasible on one
// 64-lane socket).
func TestPaperLaneExamples(t *testing.T) {
	plans, err := PlanAll(PaperExamples())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Plan{}
	for _, p := range plans {
		byName[p.Device.Name] = p
	}
	if p := byName["NIC 200Gbps"]; p.Lanes != 8 {
		t.Errorf("200G NIC lanes = %d, paper says 8", p.Lanes)
	}
	if p := byName["NIC 400Gbps"]; p.Lanes != 16 {
		t.Errorf("400G NIC lanes = %d, paper says 16", p.Lanes)
	}
	if p := byName["6x NVMe SSD (5GB/s)"]; p.Lanes != 8 {
		t.Errorf("6xSSD lanes = %d, paper says 8", p.Lanes)
	}
	p8 := byName["8x NIC 400Gbps (peak)"]
	if p8.RawLanes < 100 {
		t.Errorf("8x400G raw lanes = %d, paper says at least 100", p8.RawLanes)
	}
	if p8.FitsSocket {
		t.Error("8x400G should not fit one socket (paper: 'less realistic')")
	}
	for _, name := range []string{"NIC 200Gbps", "NIC 400Gbps", "6x NVMe SSD (5GB/s)"} {
		if !byName[name].FitsSocket {
			t.Errorf("%s should fit one socket", name)
		}
	}
}

func TestLanesFor(t *testing.T) {
	if LanesFor(0) != 0 {
		t.Fatal("zero bandwidth needs lanes")
	}
	if LanesFor(3.75) != 1 {
		t.Fatalf("one lane's worth = %d lanes", LanesFor(3.75))
	}
	if LanesFor(3.76) != 2 {
		t.Fatalf("just over one lane = %d", LanesFor(3.76))
	}
	if LanesFor(30) != 8 {
		t.Fatalf("30 GB/s = %d lanes, want 8", LanesFor(30))
	}
}

func TestRoundToLinks(t *testing.T) {
	cases := []struct{ raw, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {7, 8}, {8, 8},
		{9, 16}, {14, 16}, {16, 16}, {17, 32}, {20, 32}, {25, 32},
		{107, 112}, // seven x16 links
	}
	for _, c := range cases {
		if got := roundToLinks(c.raw); got != c.want {
			t.Errorf("roundToLinks(%d) = %d, want %d", c.raw, got, c.want)
		}
	}
}

func TestNICGbpsConversion(t *testing.T) {
	d := NICGbps("n", 200, 1)
	if d.Bandwidth != 25 {
		t.Fatalf("200 Gbps = %v GB/s", d.Bandwidth)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := PlanDevice(Device{Name: "x", Bandwidth: 1, Count: 0}); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := PlanDevice(Device{Name: "x", Bandwidth: 0, Count: 1}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := PlanAll([]Device{{Name: "bad"}}); err == nil {
		t.Fatal("PlanAll passed a bad device")
	}
}

func TestPlanString(t *testing.T) {
	p, err := PlanDevice(NICGbps("NIC 200Gbps", 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s := p.String(); s == "" {
		t.Fatal("empty row")
	}
}
