package stranding

import (
	"testing"
	"testing/quick"

	"cxlpool/internal/sim"
	"cxlpool/internal/workload"
)

// linearPackCluster is the original O(VMs×Hosts) rotating first-fit
// scan, kept as the reference model: the bucketed index must reproduce
// its placements exactly.
func linearPackCluster(cfg Config) (Stranding, error) {
	cfg.defaults()
	rng := sim.NewRand(cfg.Seed)
	sampler, err := workload.NewSampler(cfg.Types, rng)
	if err != nil {
		return Stranding{}, err
	}
	free := make([]workload.Resources, cfg.Hosts)
	for i := range free {
		free[i] = cfg.Host
	}
	placed, streak, nextHost := 0, 0, 0
	for streak < failureStreak {
		vm := sampler.Next()
		ok := false
		for j := 0; j < cfg.Hosts; j++ {
			h := (nextHost + j) % cfg.Hosts
			if free[h].Fits(vm.Req) {
				free[h] = free[h].Sub(vm.Req)
				ok = true
				placed++
				nextHost = (h + 1) % cfg.Hosts
				break
			}
		}
		if ok {
			streak = 0
		} else {
			streak++
		}
	}
	var unused workload.Resources
	for _, f := range free {
		unused = unused.Add(f)
	}
	total := float64(cfg.Hosts)
	return Stranding{
		CPU:       unused.Cores / (cfg.Host.Cores * total),
		Memory:    unused.MemGB / (cfg.Host.MemGB * total),
		SSD:       unused.SSDGB / (cfg.Host.SSDGB * total),
		NIC:       unused.NICGbps / (cfg.Host.NICGbps * total),
		PlacedVMs: placed,
	}, nil
}

// The indexed packer must be bit-identical to the linear reference for
// any seed and cluster size — this is the invariant that keeps Figure 2
// unchanged.
func TestPackClusterMatchesLinearReference(t *testing.T) {
	for _, hosts := range []int{1, 7, 64, 100, 333} {
		for seed := int64(0); seed < 4; seed++ {
			cfg := Config{Hosts: hosts, Seed: seed}
			fast, err := PackCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := linearPackCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fast != ref {
				t.Fatalf("hosts=%d seed=%d: indexed %v != linear %v", hosts, seed, fast, ref)
			}
		}
	}
}

// Property: FirstFit returns exactly what a linear cyclic scan returns,
// under arbitrary interleavings of placements and queries.
func TestCapIndexFirstFitProperty(t *testing.T) {
	type op struct {
		Start uint8
		Cores uint8
		Mem   uint8
	}
	if err := quick.Check(func(ops []op) bool {
		const n = 53 // odd, non-power-of-two to exercise padding leaves
		cap := workload.Resources{Cores: 16, MemGB: 64, SSDGB: 100, NICGbps: 10}
		ix := newCapIndex(n, cap)
		free := make([]workload.Resources, n)
		for i := range free {
			free[i] = cap
		}
		for _, o := range ops {
			req := workload.Resources{
				Cores: float64(o.Cores % 17),
				MemGB: float64(o.Mem % 65),
				SSDGB: 10,
			}
			start := int(o.Start) % n
			want := -1
			for j := 0; j < n; j++ {
				h := (start + j) % n
				if free[h].Fits(req) {
					want = h
					break
				}
			}
			got := ix.FirstFit(start, req)
			if got != want {
				return false
			}
			if got >= 0 {
				free[got] = free[got].Sub(req)
				ix.Set(got, free[got])
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The 20k-host scenario the index enables: ten times the paper's
// 2000-host cluster, which the linear scan could not afford to sweep. The stranding profile must
// stay in the Figure 2 regime at scale.
func TestPackCluster20kHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-host pack in -short mode")
	}
	s, err := PackCluster(Config{Hosts: 20000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if s.PlacedVMs < 150000 {
		t.Fatalf("only %d VMs placed on 20000 hosts", s.PlacedVMs)
	}
	if s.SSD < 0.45 || s.SSD > 0.65 {
		t.Errorf("SSD stranding %.1f%% at 20k hosts, want 45-65%%", s.SSD*100)
	}
	if !(s.SSD > s.NIC && s.NIC > s.CPU && s.NIC > s.Memory) {
		t.Errorf("stranding ordering wrong at 20k hosts: %v", s)
	}
}

func BenchmarkPackCluster2000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PackCluster(Config{Hosts: 2000, Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackCluster20k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PackCluster(Config{Hosts: 20000, Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackClusterLinear2000 keeps the pre-index scan measurable so
// the speedup stays visible in bench history.
func BenchmarkPackClusterLinear2000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := linearPackCluster(Config{Hosts: 2000, Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}
