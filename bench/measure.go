package main

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// runOpts is one benchmark run: a seed and a measuring window.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	// outDir receives the traced run's spans and CPU profile.
	outDir string
}

// passSample is the host cost of one pass.
type passSample struct {
	Input  int  `json:"input"`
	Traced bool `json:"traced"`
	// SetupS is the set-up's wall time; WallS and CPUS cover the run.
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	// AllocMB covers set-up and run; HeapMB is the live heap the
	// instance holds when its run ends.
	AllocMB  float64 `json:"alloc_mb"`
	HeapMB   float64 `json:"heap_mb"`
	gcCycles float64
	mallocs  float64
	gcCPU    float64
	totalCPU float64
}

// runOutput is everything one run reports.
type runOutput struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Passes    int                `json:"passes"`
	SimDigest string             `json:"sim_digest"`
	Counts    map[string]float64 `json:"deterministic"`
	Problems  []string           `json:"problems,omitempty"`
	Env       envInfo            `json:"env"`
	Samples   []passSample       `json:"samples"`
	// SelfMs is each span name's total self time in the traced passes.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`

	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// maxProblems caps the failed checks a run lists; the count is exact.
const maxProblems = 20

// passMetrics are the runtime/metrics read around every pass.
var passMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// runState is one run in progress.
type runState struct {
	w       workload
	o       runOpts
	out     *runOutput
	tr      *tracer
	rt      []metrics.Sample
	live    []metrics.Sample
	refs    map[int]*passResult
	stopped bool
}

// measure runs one workload: a warm-up pass of the first input, then
// one pass per input (input k seeded by inputSeed(seed, k)) until the
// window closes and at least w.minPasses passes ran. A traced run
// spends the second half of its window traced and profiled, starting
// over at the first input. A pass of an input that ran before must
// reproduce that pass's digest and counts exactly.
func measure(w workload, o runOpts) (*runOutput, error) {
	r := &runState{
		w:    w,
		o:    o,
		out:  &runOutput{Workload: w.name, Seed: o.seed, Traced: o.traced, Env: hostEnv()},
		tr:   newTracer(),
		rt:   make([]metrics.Sample, len(passMetrics)),
		live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		refs: map[int]*passResult{},
	}
	for i, n := range passMetrics {
		r.rt[i].Name = n
	}
	if err := r.pass(0, false, false); err != nil {
		return nil, err
	}
	window := o.seconds
	if o.traced {
		window /= 2
	}
	if err := r.phase(window, false); err != nil {
		return nil, err
	}
	var prof *profile
	if o.traced {
		var err error
		if prof, err = r.tracedPhase(window); err != nil {
			return nil, err
		}
	}

	// A run vouches for the simulated outputs of its first minPasses
	// inputs, which every run of the seed computes.
	out := r.out
	h := sha256.New()
	out.Counts = map[string]float64{}
	for k := 0; k < w.minPasses && r.refs[k] != nil; k++ {
		fmt.Fprintln(h, r.refs[k].digest)
		for name, v := range r.refs[k].counts {
			out.Counts[name] += v / float64(w.minPasses)
		}
	}
	out.SimDigest = fmt.Sprintf("%x", h.Sum(nil))
	out.Correct = out.Failed == 0
	out.Metrics = endToEnd(out.Samples)
	if o.traced {
		out.Metrics = r.layerMetrics(prof, out.Metrics["wall_s"])
	}
	return out, nil
}

// pass sets up and runs input k once.
func (r *runState) pass(k int, traced, keep bool) error {
	runtime.GC()
	out, tr := r.out, r.tr
	tr.on, tr.run = traced, out.Passes
	seed := inputSeed(r.o.seed, k)
	s := passSample{Input: k, Traced: traced}
	m0, t0 := readRuntime(r.rt), time.Now()
	tr.begin(r.w.name)
	tr.begin("setup")
	inst, err := r.w.setup(seed, tr)
	tr.end()
	if err != nil {
		tr.end()
		return fmt.Errorf("%s setup (seed %d): %w", r.w.name, seed, err)
	}
	t1, c1 := time.Now(), cpuSeconds()
	runErr := inst.run(tr)
	tr.end()
	t2, c2, m2 := time.Now(), cpuSeconds(), readRuntime(r.rt)
	// The instance is still reachable here, so a full collection leaves
	// exactly what the simulated system holds.
	runtime.GC()
	metrics.Read(r.live)
	s.HeapMB = float64(r.live[0].Value.Uint64()) / 1e6
	s.SetupS, s.WallS, s.CPUS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), c2-c1
	s.AllocMB = (m2[0] - m0[0]) / 1e6
	s.mallocs, s.gcCycles = m2[1]-m0[1], m2[2]-m0[2]
	s.gcCPU, s.totalCPU = m2[3]-m0[3], m2[4]-m0[4]

	res := inst.finish()
	if ref := r.refs[k]; ref == nil {
		r.refs[k] = &res
	} else if res.digest != ref.digest || !maps.Equal(res.counts, ref.counts) {
		res.fail(res.steps-1, "not reproducible: differs from the input's earlier pass")
	}
	out.Attempted += res.steps
	out.Failed += len(res.bad)
	for _, p := range res.problems {
		if len(out.Problems) < maxProblems {
			out.Problems = append(out.Problems, fmt.Sprintf("pass %d (seed %d): %s", out.Passes, seed, p))
		}
	}
	out.Passes++
	if keep {
		out.Samples = append(out.Samples, s)
	}
	r.stopped = runErr != nil
	return nil
}

// phase runs inputs 0, 1, ... until the window closes and at least
// minPasses ran, or a run fails.
func (r *runState) phase(seconds float64, traced bool) error {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; !r.stopped && (k < r.w.minPasses || time.Now().Before(end)); k++ {
		if err := r.pass(k, traced, true); err != nil {
			return err
		}
	}
	return nil
}

// tracedPhase is a phase with spans on and a CPU profile running; it
// writes both to outDir and returns the reduced profile.
func (r *runState) tracedPhase(seconds float64) (*profile, error) {
	if err := os.MkdirAll(r.o.outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(r.o.outDir, fmt.Sprintf("%s-seed%d", r.w.name, r.o.seed))
	f, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	err = r.phase(seconds, true)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := r.tr.write(stem + ".spans.jsonl"); err != nil {
		return nil, err
	}
	r.out.SelfMs = r.tr.selfByName()
	return readProfile(stem + ".cpu.pprof")
}

// endToEnd is each end-to-end metric's median over the untraced passes.
func endToEnd(samples []passSample) map[string]float64 {
	med := func(get func(passSample) float64) float64 { return medianOf(samples, false, get) }
	return map[string]float64{
		"setup_s":  med(func(s passSample) float64 { return s.SetupS }),
		"wall_s":   med(func(s passSample) float64 { return s.WallS }),
		"cpu_s":    med(func(s passSample) float64 { return s.CPUS }),
		"heap_mb":  med(func(s passSample) float64 { return s.HeapMB }),
		"alloc_mb": med(func(s passSample) float64 { return s.AllocMB }),
	}
}

// medianOf is a sample field's median over the traced or the untraced
// passes.
func medianOf(samples []passSample, traced bool, get func(passSample) float64) float64 {
	var xs []float64
	for _, s := range samples {
		if s.Traced == traced {
			xs = append(xs, get(s))
		}
	}
	return median(xs)
}

// layerMetrics assembles the per-layer metrics: the deterministic
// counts, the runtime's costs over the untraced passes, and the timings
// read off the traced passes' spans and CPU profile. wall is the
// untraced median pass time.
func (r *runState) layerMetrics(prof *profile, wall float64) map[string]float64 {
	out, tr := r.out, r.tr
	m := prof.shares()
	maps.Copy(m, out.Counts)
	if ev := out.Counts["sim.events"]; ev > 0 {
		m["sim.host_ns_per_event"] = wall * 1e9 / ev
	}
	var gc, total float64
	traced := 0
	for _, s := range out.Samples {
		if s.Traced {
			traced++
		} else {
			gc += s.gcCPU
			total += s.totalCPU
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024
	}
	m["runtime.gc_cpu_pct"] = 100 * ratio(gc, total)
	m["runtime.gc_cycles"] = medianOf(out.Samples, false, func(s passSample) float64 { return s.gcCycles })
	m["runtime.mallocs"] = medianOf(out.Samples, false, func(s passSample) float64 { return s.mallocs })
	m["trace.overhead_frac"] = medianOf(out.Samples, true, func(s passSample) float64 { return s.WallS })/wall - 1

	epochs := tr.durationsMs("cluster.run_epoch")
	m["cluster.run_epoch_ms.p50"] = percentile(epochs, 50)
	m["cluster.run_epoch_ms.p90"] = percentile(epochs, 90)
	m["cluster.run_epoch_ms.n"] = float64(len(epochs))
	m["cluster.new_ms"] = median(tr.durationsMs("cluster.new"))
	m["churn.generate_ms"] = median(tr.durationsMs("churn.generate"))
	m["faults.schedule_ms"] = median(tr.durationsMs("faults.schedule"))
	for _, name := range []string{"report.text", "report.json"} {
		var sum float64
		for _, d := range tr.durationsMs(name) {
			sum += d
		}
		m[name+"_ms"] = ratio(sum, float64(traced))
	}
	// A scenario's run time is its span's self time: the span minus the
	// rendering spans under it.
	self := tr.selfMs()
	runs := map[string][]float64{}
	for i, s := range tr.spans {
		if strings.HasPrefix(s.Name, "experiments.") {
			runs[s.Name] = append(runs[s.Name], self[i])
		}
	}
	for name, v := range runs {
		m[name+".run_ms"] = median(v)
	}
	return m
}

func readRuntime(s []metrics.Sample) [5]float64 {
	metrics.Read(s)
	var v [5]float64
	for i, m := range s {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = m.Value.Float64()
		}
	}
	return v
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// envInfo identifies the host a run was measured on.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	GODEBUG    string `json:"godebug"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// CPUModel and Commit are filled in by the suite, which may read
	// outside the checkout's files.
	CPUModel string `json:"cpu_model,omitempty"`
	Commit   string `json:"commit,omitempty"`
}

func hostEnv() envInfo {
	return envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GODEBUG:    os.Getenv("GODEBUG"),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}
