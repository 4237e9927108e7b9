// Package metrics provides the measurement primitives used by every
// experiment in this repository: streaming latency recorders with exact
// percentiles, CDF extraction, and ordered counter sets.
//
// Experiments record simulated durations (internal/sim.Time deltas) and
// report the same statistics the paper plots: p50/p90/p99 latency
// (Figure 3), full CDFs (Figure 4), and mean utilization/stranding
// percentages (Figure 2).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Recorder collects individual samples and computes exact order
// statistics. It keeps all samples; experiments in this repo record at
// most a few million points, for which exact percentiles are affordable
// and avoid approximation artifacts in the reproduced figures.
type Recorder struct {
	samples []float64
	sorted  bool
	sum     float64
}

// NewRecorder returns an empty recorder with capacity hint n.
func NewRecorder(n int) *Recorder {
	return &Recorder{samples: make([]float64, 0, n)}
}

// Record adds one sample.
func (r *Recorder) Record(v float64) {
	r.samples = append(r.samples, v)
	r.sorted = false
	r.sum += v
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Sum returns the sum of all samples.
//
//lint:allow testonly TestForwarderTracePinned pins each pooled device's latency sum
func (r *Recorder) Sum() float64 { return r.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (r *Recorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / float64(len(r.samples))
}

func (r *Recorder) sortSamples() {
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 with no samples.
func (r *Recorder) Percentile(p float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	r.sortSamples()
	if len(r.samples) == 1 {
		return r.samples[0]
	}
	rank := p / 100 * float64(len(r.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return r.samples[lo]
	}
	frac := rank - float64(lo)
	return r.samples[lo]*(1-frac) + r.samples[hi]*frac
}

// Min returns the smallest sample, or 0 with no samples.
func (r *Recorder) Min() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	r.sortSamples()
	return r.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (r *Recorder) Max() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	r.sortSamples()
	return r.samples[len(r.samples)-1]
}

// Stddev returns the population standard deviation.
func (r *Recorder) Stddev() float64 {
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	mean := r.Mean()
	var ss float64
	for _, v := range r.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Reset discards all samples but keeps the allocated capacity.
func (r *Recorder) Reset() {
	r.samples = r.samples[:0]
	r.sorted = false
	r.sum = 0
}

// CDFPoint is one point of an empirical CDF: fraction F of samples are
// <= Value.
type CDFPoint struct {
	Value float64
	F     float64
}

// CDF returns the empirical CDF downsampled to at most maxPoints points
// (always including min and max). With no samples it returns nil.
func (r *Recorder) CDF(maxPoints int) []CDFPoint {
	n := len(r.samples)
	if n == 0 {
		return nil
	}
	if maxPoints < 2 {
		maxPoints = 2
	}
	r.sortSamples()
	if maxPoints > n {
		maxPoints = n
	}
	pts := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := i * (n - 1) / (maxPoints - 1)
		pts = append(pts, CDFPoint{
			Value: r.samples[idx],
			F:     float64(idx+1) / float64(n),
		})
	}
	return pts
}

// Summary is a compact digest of a recorder, convenient for table rows.
type Summary struct {
	Count               int
	Mean, Min, Max      float64
	P50, P90, P99, P999 float64
	Stddev              float64
}

// Summarize computes the standard digest.
func (r *Recorder) Summarize() Summary {
	return Summary{
		Count:  r.Count(),
		Mean:   r.Mean(),
		Min:    r.Min(),
		Max:    r.Max(),
		P50:    r.Percentile(50),
		P90:    r.Percentile(90),
		P99:    r.Percentile(99),
		P999:   r.Percentile(99.9),
		Stddev: r.Stddev(),
	}
}

// String renders the summary as a single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// CounterSet is an ordered collection of named counters: per-rack
// placements, cross-rack migrations, drain tallies in the cluster
// layer. Names iterate in first-Add order, so rendering a set is
// deterministic regardless of update order — the same property the
// orchestrator's vnicOrder slice provides for assignment walks.
type CounterSet struct {
	names []string
	vals  map[string]uint64
}

// NewCounterSet returns an empty set.
func NewCounterSet() *CounterSet {
	return &CounterSet{vals: make(map[string]uint64)}
}

// Add increments the named counter by d, creating it at zero first if
// new (a zero d registers the name for rendering).
func (s *CounterSet) Add(name string, d uint64) {
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] += d
}

// Total sums every counter in the set.
func (s *CounterSet) Total() uint64 {
	var t uint64
	for _, n := range s.names {
		t += s.vals[n]
	}
	return t
}

// String renders "name=value" pairs in first-Add order.
func (s *CounterSet) String() string {
	var b strings.Builder
	for i, n := range s.names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, s.vals[n])
	}
	return b.String()
}
