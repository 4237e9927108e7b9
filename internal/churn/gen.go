package churn

import (
	"fmt"
	"math"

	"cxlpool/internal/sim"
	"cxlpool/internal/workload"
)

// ArrivalKind selects the arrival process.
type ArrivalKind int

const (
	// ArrivalsPoisson draws each epoch's arrival count from a Poisson
	// distribution at the (diurnally modulated) rate.
	ArrivalsPoisson ArrivalKind = iota
	// ArrivalsBursty is Poisson with bursts: each epoch independently
	// becomes a burst with probability burstProb, multiplying the rate
	// by burstFactor — the correlated-arrival pattern (deploy waves,
	// failover stampedes) that stresses the admission fast path.
	ArrivalsBursty
)

// String returns the knob value the CLI uses.
func (k ArrivalKind) String() string {
	if k == ArrivalsBursty {
		return "bursty"
	}
	return "poisson"
}

// ParseArrivalKind resolves an -arrivals knob value.
func ParseArrivalKind(s string) (ArrivalKind, error) {
	switch s {
	case "poisson":
		return ArrivalsPoisson, nil
	case "bursty":
		return ArrivalsBursty, nil
	}
	return 0, fmt.Errorf("churn: unknown arrival process %q", s)
}

// LifetimeKind selects the lifetime/size distributions.
type LifetimeKind int

const (
	// LifeGeometric draws geometric lifetimes (memoryless, in epochs)
	// and mix-distributed demands (workload.DefaultTenantLevels).
	LifeGeometric LifetimeKind = iota
	// LifePareto draws bounded-Pareto lifetimes and demands — the
	// heavy-tailed regime where a few huge, long-lived tenants carry
	// most of the load.
	LifePareto
)

// String returns the knob value the CLI uses.
func (k LifetimeKind) String() string {
	if k == LifePareto {
		return "pareto"
	}
	return "geometric"
}

// ParseLifetimeKind resolves a -lifetime knob value.
func ParseLifetimeKind(s string) (LifetimeKind, error) {
	switch s {
	case "geometric":
		return LifeGeometric, nil
	case "pareto":
		return LifePareto, nil
	}
	return 0, fmt.Errorf("churn: unknown lifetime distribution %q", s)
}

// Generator shape constants.
const (
	// burstProb and burstFactor define the bursty arrival process.
	burstProb   = 0.15
	burstFactor = 4.0
	// paretoAlphaLife/paretoAlphaGbps are the tail exponents; alpha in
	// (1, 2) gives finite mean, infinite variance — the classic
	// heavy-tail regime.
	paretoAlphaLife = 1.5
	paretoAlphaGbps = 1.6
	// paretoGbpsMin is the smallest Pareto-drawn demand; genGbpsCap
	// bounds the tail at roughly one pooled 100 Gbps device (the
	// cluster layer caps harder if needed).
	paretoGbpsMin = 2.0
	genGbpsCap    = 64.0
	// lifeCapFactor bounds Pareto lifetimes at lifeCapFactor*MeanLife
	// so one tail draw cannot dominate the trace horizon.
	lifeCapFactor = 50.0
	// maxRate bounds the effective per-epoch arrival rate (post-burst)
	// where Knuth's Poisson sampler stays exact.
	maxRate = 128.0
)

// GenConfig sizes a generated schedule.
type GenConfig struct {
	// Epochs is the schedule horizon; departures beyond it are
	// omitted (the tenant simply never departs within the trace).
	Epochs int
	// Racks spreads arrivals' home racks uniformly over [0, Racks).
	Racks int
	// Arrivals is the arrival process (default ArrivalsPoisson).
	Arrivals ArrivalKind
	// Rate is the mean arrivals per epoch before modulation (default
	// 3; post-burst effective rate is capped at maxRate).
	Rate float64
	// Lifetime is the lifetime/size regime (default LifeGeometric).
	Lifetime LifetimeKind
	// MeanLife is the mean tenant lifetime in epochs (default 6).
	MeanLife float64
	// Diurnal is the rate-curve amplitude in [0, 0.95]: the rate is
	// multiplied by 1 + Diurnal*sin(2*pi*epoch/DiurnalPeriod). 0
	// disables the curve.
	Diurnal float64
	// DiurnalPeriod is the curve's period in epochs (default 12).
	DiurnalPeriod int
	// Seed drives the whole schedule; same config, same trace.
	Seed int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Rate == 0 {
		c.Rate = 3
	}
	if c.MeanLife == 0 {
		c.MeanLife = 6
	}
	if c.DiurnalPeriod <= 0 {
		c.DiurnalPeriod = 12
	}
	return c
}

func (c GenConfig) validate() error {
	if c.Epochs <= 0 {
		return fmt.Errorf("%w: epochs %d must be positive", ErrBadTrace, c.Epochs)
	}
	if c.Racks <= 0 {
		return fmt.Errorf("%w: racks %d must be positive", ErrBadTrace, c.Racks)
	}
	// Each check is written so NaN fails it: every comparison with NaN
	// is false, and a NaN rate would stall poisson's product loop.
	if !(c.Rate > 0 && c.Rate <= maxRate) {
		return fmt.Errorf("%w: rate %g outside (0, %g]", ErrBadTrace, c.Rate, maxRate)
	}
	if !(c.MeanLife >= 1) || math.IsInf(c.MeanLife, 1) {
		return fmt.Errorf("%w: mean lifetime %g must be finite and >= 1 epoch", ErrBadTrace, c.MeanLife)
	}
	if !(c.Diurnal >= 0 && c.Diurnal <= 0.95) {
		return fmt.Errorf("%w: diurnal amplitude %g outside [0, 0.95]", ErrBadTrace, c.Diurnal)
	}
	return nil
}

// Generate materializes a schedule from the config: for each epoch it
// draws an arrival count from the (modulated) process, and for each
// arrival a home rack, a baseline demand, and a lifetime that places
// the matching departure. The result is a validated canonical Trace —
// indistinguishable from one parsed back off disk.
func Generate(cfg GenConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRand(cfg.Seed*6364136223846793005 + 1442695040888963407)
	mix, err := workload.NewTenantDemand(nil, nil, rng)
	if err != nil {
		return nil, err
	}
	var events []Event
	seq := 0
	for e := 0; e < cfg.Epochs; e++ {
		rate := cfg.Rate
		if cfg.Diurnal > 0 {
			rate *= 1 + cfg.Diurnal*math.Sin(2*math.Pi*float64(e)/float64(cfg.DiurnalPeriod))
		}
		if cfg.Arrivals == ArrivalsBursty && rng.Float64() < burstProb {
			rate *= burstFactor
		}
		if rate > maxRate {
			rate = maxRate
		}
		for i := poisson(rng, rate); i > 0; i-- {
			ev := Event{
				Epoch:  e,
				Op:     OpArrive,
				Tenant: fmt.Sprintf("t%d", seq),
				Home:   rng.Intn(cfg.Racks),
			}
			seq++
			if cfg.Lifetime == LifePareto {
				ev.Gbps = paretoGbps(rng)
			} else {
				ev.Gbps = mix.Next()
			}
			events = append(events, ev)
			if depart := e + lifetime(rng, cfg); depart < cfg.Epochs {
				events = append(events, Event{Epoch: depart, Op: OpDepart, Tenant: ev.Tenant})
			}
		}
	}
	return newTrace(events)
}

// poisson draws a Poisson variate by Knuth's product method — exact
// and allocation-free at the rates the generator permits.
func poisson(rng *sim.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// lifetime draws a tenant lifetime in epochs (>= 1).
func lifetime(rng *sim.Rand, cfg GenConfig) int {
	switch cfg.Lifetime {
	case LifePareto:
		// Bounded Pareto: xm chosen so the unbounded mean is MeanLife
		// (xm = m*(a-1)/a), tail capped at lifeCapFactor*MeanLife.
		xm := cfg.MeanLife * (paretoAlphaLife - 1) / paretoAlphaLife
		life := int(math.Ceil(xm * invPareto(rng, paretoAlphaLife)))
		if limit := int(lifeCapFactor * cfg.MeanLife); life > limit {
			life = limit
		}
		if life < 1 {
			life = 1
		}
		return life
	default:
		// Geometric on {1, 2, ...} with mean MeanLife: p = 1/MeanLife,
		// inverted through one uniform draw.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		life := 1 + int(math.Floor(math.Log(u)/math.Log(1-1/cfg.MeanLife)))
		if life < 1 {
			life = 1
		}
		return life
	}
}

// paretoGbps draws a bounded-Pareto baseline demand.
func paretoGbps(rng *sim.Rand) float64 {
	g := paretoGbpsMin * invPareto(rng, paretoAlphaGbps)
	if g > genGbpsCap {
		g = genGbpsCap
	}
	return g
}

// invPareto draws u^(-1/alpha) for u uniform in (0, 1) — the Pareto
// inverse-CDF factor with minimum 1.
func invPareto(rng *sim.Rand, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return math.Pow(u, -1/alpha)
}
