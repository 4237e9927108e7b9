package workload

import (
	"testing"
	"testing/quick"

	"cxlpool/internal/sim"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{8, 32, 300, 4}
	b := Resources{4, 16, 100, 2}
	sum := a.Add(b)
	if sum != (Resources{12, 48, 400, 6}) {
		t.Fatalf("add = %+v", sum)
	}
	if sum.Sub(b) != a {
		t.Fatal("sub does not invert add")
	}
	if !a.Fits(b) {
		t.Fatal("smaller demand must fit")
	}
	if b.Fits(a) {
		t.Fatal("larger demand must not fit")
	}
	// Fits is per-dimension, not aggregate.
	c := Resources{100, 1, 1, 1}
	if a.Fits(c) {
		t.Fatal("one oversized dimension must reject")
	}
}

func TestDefaultMixIsValid(t *testing.T) {
	types := DefaultVMTypes()
	sum := 0.0
	for _, ty := range types {
		sum += ty.Freq
		if ty.Req.Cores <= 0 || ty.Req.MemGB <= 0 || ty.Req.SSDGB <= 0 || ty.Req.NICGbps <= 0 {
			t.Fatalf("type %s has non-positive demand", ty.Name)
		}
		if !DefaultHost().Fits(ty.Req) {
			t.Fatalf("type %s does not fit an empty host", ty.Name)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("frequencies sum to %g", sum)
	}
}

func TestSamplerFrequencies(t *testing.T) {
	s, err := NewSampler(DefaultVMTypes(), sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Next().Name]++
	}
	for _, ty := range DefaultVMTypes() {
		got := float64(counts[ty.Name]) / n
		if got < ty.Freq-0.02 || got > ty.Freq+0.02 {
			t.Errorf("type %s frequency %.3f, want ~%.3f", ty.Name, got, ty.Freq)
		}
	}
}

func TestSamplerValidation(t *testing.T) {
	rng := sim.NewRand(1)
	if _, err := NewSampler(nil, rng); err == nil {
		t.Fatal("empty mix accepted")
	}
	bad := []VMType{{Name: "x", Freq: 0.5, Req: Resources{1, 1, 1, 1}}}
	if _, err := NewSampler(bad, rng); err == nil {
		t.Fatal("non-normalized mix accepted")
	}
	neg := []VMType{
		{Name: "x", Freq: -0.5, Req: Resources{1, 1, 1, 1}},
		{Name: "y", Freq: 1.5, Req: Resources{1, 1, 1, 1}},
	}
	if _, err := NewSampler(neg, rng); err == nil {
		t.Fatal("negative frequency accepted")
	}
}

func TestMeanDemandMatchesSampling(t *testing.T) {
	types := DefaultVMTypes()
	mean := meanDemand(types)
	s, err := NewSampler(types, sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	var sum Resources
	const n = 200000
	for i := 0; i < n; i++ {
		sum = sum.Add(s.Next().Req)
	}
	emp := Resources{sum.Cores / n, sum.MemGB / n, sum.SSDGB / n, sum.NICGbps / n}
	within := func(a, b float64) bool { return a > b*0.97 && a < b*1.03 }
	if !within(emp.Cores, mean.Cores) || !within(emp.MemGB, mean.MemGB) ||
		!within(emp.SSDGB, mean.SSDGB) || !within(emp.NICGbps, mean.NICGbps) {
		t.Fatalf("empirical mean %+v vs analytic %+v", emp, mean)
	}
}

func TestMixCalibrationBindsOnCompute(t *testing.T) {
	// The mix must make CPU/memory the tight dimensions relative to the
	// host shape: VMs-per-host limited by compute, with SSD and NIC
	// demand clearly below capacity at that point (Figure 2's regime).
	host := DefaultHost()
	mean := meanDemand(DefaultVMTypes())
	vmsByCPU := host.Cores / mean.Cores
	vmsByMem := host.MemGB / mean.MemGB
	vmsBySSD := host.SSDGB / mean.SSDGB
	vmsByNIC := host.NICGbps / mean.NICGbps
	compute := vmsByCPU
	if vmsByMem < compute {
		compute = vmsByMem
	}
	if vmsBySSD < compute*1.3 {
		t.Fatalf("SSD nearly binding (%.1f vs %.1f VMs); mix miscalibrated", vmsBySSD, compute)
	}
	if vmsByNIC < compute*1.2 {
		t.Fatalf("NIC nearly binding (%.1f vs %.1f VMs)", vmsByNIC, compute)
	}
}

// Property: Fits is monotone — if demand fits, any smaller demand fits.
func TestFitsMonotoneProperty(t *testing.T) {
	if err := quick.Check(func(c, m, s, n uint16) bool {
		cap := DefaultHost()
		d := Resources{float64(c % 96), float64(m % 768), float64(s % 15000), float64(n % 100)}
		smaller := Resources{d.Cores / 2, d.MemGB / 2, d.SSDGB / 2, d.NICGbps / 2}
		if cap.Fits(d) && !cap.Fits(smaller) {
			return false
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// meanDemand returns the expectation of a VM-type mix.
func meanDemand(types []VMType) Resources {
	var m Resources
	for _, t := range types {
		m.Cores += t.Freq * t.Req.Cores
		m.MemGB += t.Freq * t.Req.MemGB
		m.SSDGB += t.Freq * t.Req.SSDGB
		m.NICGbps += t.Freq * t.Req.NICGbps
	}
	return m
}
