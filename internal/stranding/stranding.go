// Package stranding reproduces the paper's resource-stranding analysis:
// Figure 2 (percent of CPU/memory/SSD/NIC capacity stranded in a cloud
// cluster) and the §2.1 √N pooling argument (pooling across N hosts
// shrinks stranding by roughly √N; e.g. SSD 54%→19% and NIC 29%→10% at
// N=8).
//
// Two complementary models:
//
//   - PackCluster: an empirical multi-dimensional bin-packing
//     simulation. VMs are drawn from the workload mix and first-fit
//     packed onto hosts until the cluster saturates; stranding per
//     dimension is the unused fraction of deployed capacity. This
//     regenerates Figure 2.
//
//   - PoolingStudy: the provisioning-centric model behind §2.1.
//     Per-host demand is a random variable; capacity must be
//     provisioned at a high quantile of demand. Pooling N hosts lets a
//     group provision at the quantile of the *sum*, whose relative
//     spread shrinks by √N (CLT) — exactly the paper's queueing-theory
//     estimate, measured empirically here alongside the analytic
//     S₁/√N curve.
package stranding

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cxlpool/internal/sim"
	"cxlpool/internal/workload"
)

// Config parameterizes the cluster simulation.
type Config struct {
	// Hosts is the cluster size (default 2000).
	Hosts int
	// Host is the per-host capacity (default workload.DefaultHost).
	Host workload.Resources
	// Types is the VM mix (default workload.DefaultVMTypes).
	Types []workload.VMType
	// Seed drives VM sampling.
	Seed int64
}

func (c *Config) defaults() {
	if c.Hosts <= 0 {
		c.Hosts = 2000
	}
	if c.Host == (workload.Resources{}) {
		c.Host = workload.DefaultHost()
	}
	if len(c.Types) == 0 {
		c.Types = workload.DefaultVMTypes()
	}
}

// failureStreak stops packing after this many consecutive placement
// failures: the cluster is saturated.
const failureStreak = 200

// Stranding is the Figure 2 result: fraction of deployed capacity that
// is stranded (unused at cluster saturation) per dimension.
type Stranding struct {
	CPU, Memory, SSD, NIC float64
	PlacedVMs             int
}

// String renders the result as the paper's bar values.
func (s Stranding) String() string {
	return fmt.Sprintf("CPU %.1f%%  Memory %.1f%%  SSD %.1f%%  NIC %.1f%% (VMs=%d)",
		s.CPU*100, s.Memory*100, s.SSD*100, s.NIC*100, s.PlacedVMs)
}

// PackCluster runs the Figure 2 experiment: first-fit pack VMs until
// saturation, then report per-dimension stranding.
//
// Placement uses a bucketed free-capacity index (capIndex) that visits
// hosts in the same cyclic first-fit order as a plain scan but prunes
// buckets whose max-free summary cannot fit the VM, so per-VM placement
// cost is O(log Hosts) rather than O(Hosts). Results for a given seed
// are identical to the linear scan; the index is what makes 20k-host
// clusters (PackCluster20k in the tests, `cxlpool figure2xl`) tractable.
func PackCluster(cfg Config) (Stranding, error) {
	cfg.defaults()
	rng := sim.NewRand(cfg.Seed)
	sampler, err := workload.NewSampler(cfg.Types, rng)
	if err != nil {
		return Stranding{}, err
	}
	index := newCapIndex(cfg.Hosts, cfg.Host)
	placed := 0
	streak := 0
	// nextHost rotates the first-fit starting point so early hosts do
	// not absorb all the tail VM types.
	nextHost := 0
	// Free capacity only ever decreases while packing, so a VM shape
	// that once failed to fit anywhere can never fit again. Remembering
	// those shapes turns the saturation phase — where the failure streak
	// used to rescan the whole cluster per draw — into O(1) per failed
	// draw, without changing a single placement decision.
	var dead []workload.Resources
	for streak < failureStreak {
		vm := sampler.Next()
		known := false
		for _, d := range dead {
			if d == vm.Req {
				known = true
				break
			}
		}
		if known {
			streak++
			continue
		}
		if h := index.FirstFit(nextHost, vm.Req); h >= 0 {
			index.Set(h, index.Free(h).Sub(vm.Req))
			placed++
			nextHost = (h + 1) % cfg.Hosts
			streak = 0
		} else {
			dead = append(dead, vm.Req)
			streak++
		}
	}
	var unused workload.Resources
	for h := 0; h < cfg.Hosts; h++ {
		unused = unused.Add(index.Free(h))
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

// hostDemand draws the resource consumption of one host packed until
// CPU or memory binds (the compute dimensions bind first in the
// calibrated mix, as in Figure 2's clusters).
func hostDemand(s *workload.Sampler, host workload.Resources) workload.Resources {
	freeRes := host
	var used workload.Resources
	misses := 0
	for misses < 20 {
		vm := s.Next()
		if freeRes.Fits(vm.Req) {
			freeRes = freeRes.Sub(vm.Req)
			used = used.Add(vm.Req)
			misses = 0
		} else {
			misses++
		}
	}
	return used
}

// PoolingRow is one N in the §2.1 study.
type PoolingRow struct {
	N int
	// SSD and NIC are empirical stranded fractions when capacity is
	// provisioned at the demand quantile for groups of N hosts.
	SSD, NIC float64
	// SSDAnalytic and NICAnalytic are the paper's S₁/√N estimates.
	SSDAnalytic, NICAnalytic float64
}

// PoolingStudy runs the √N experiment for each group size in ns.
// quantile is the provisioning percentile (default 0.99): capacity per
// pool is set to that quantile of pooled demand, and stranding is the
// provisioned-but-unused fraction in expectation.
func PoolingStudy(cfg Config, ns []int, quantile float64) ([]PoolingRow, error) {
	cfg.defaults()
	if quantile <= 0 || quantile >= 1 {
		quantile = 0.99
	}
	if len(ns) == 0 {
		return nil, errors.New("stranding: no group sizes")
	}
	rng := sim.NewRand(cfg.Seed)
	sampler, err := workload.NewSampler(cfg.Types, rng)
	if err != nil {
		return nil, err
	}
	// Draw a large population of per-host demands once.
	const samples = 20000
	ssd := make([]float64, samples)
	nic := make([]float64, samples)
	var ssdSum, nicSum float64
	for i := 0; i < samples; i++ {
		d := hostDemand(sampler, cfg.Host)
		ssd[i] = d.SSDGB
		nic[i] = d.NICGbps
		ssdSum += d.SSDGB
		nicSum += d.NICGbps
	}
	ssdMean, nicMean := ssdSum/samples, nicSum/samples

	strand := func(vals []float64, mean float64, n int) float64 {
		groups := len(vals) / n
		sums := make([]float64, groups)
		for g := 0; g < groups; g++ {
			for j := 0; j < n; j++ {
				sums[g] += vals[g*n+j]
			}
		}
		sort.Float64s(sums)
		idx := int(quantile * float64(groups))
		if idx >= groups {
			idx = groups - 1
		}
		provisioned := sums[idx]
		if provisioned <= 0 {
			return 0
		}
		return (provisioned - mean*float64(n)) / provisioned
	}

	var s1SSD, s1NIC float64
	rows := make([]PoolingRow, 0, len(ns))
	for _, n := range ns {
		if n <= 0 {
			return nil, fmt.Errorf("stranding: invalid group size %d", n)
		}
		row := PoolingRow{
			N:   n,
			SSD: strand(ssd, ssdMean, n),
			NIC: strand(nic, nicMean, n),
		}
		if n == 1 || s1SSD == 0 {
			if n == 1 {
				s1SSD, s1NIC = row.SSD, row.NIC
			}
		}
		rows = append(rows, row)
	}
	// Analytic columns use the N=1 empirical values as S₁ (or the first
	// row's values scaled back if N=1 was not requested).
	if s1SSD == 0 && len(rows) > 0 {
		f := math.Sqrt(float64(rows[0].N))
		s1SSD, s1NIC = rows[0].SSD*f, rows[0].NIC*f
	}
	for i := range rows {
		f := math.Sqrt(float64(rows[i].N))
		rows[i].SSDAnalytic = s1SSD / f
		rows[i].NICAnalytic = s1NIC / f
	}
	return rows, nil
}
