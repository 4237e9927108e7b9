// Command cxlbench is the repository benchmark: it times the cxlpool
// simulator on four workloads through its public functions, checks the
// simulated outputs, and attributes host time to the simulator's
// layers from outside. Run it through bench/run.sh, which builds it and
// starts it from the repository root:
//
//	bench/run.sh --workload fleet-hotspot --seed 42 --seconds 25 --trace 0
//	bench/run.sh [-seed N] [-seconds S]   # every workload, 5 fresh processes each
//	bench/run.sh --traced [-seed N]       # ... plus one traced run per workload
//	bench/run.sh --compare A.json B.json  # judge B against A with BENCHMARK.json's bounds
//
// A single run prints human-readable lines, a `detail` line with the
// run's full record, and as its last line one JSON object with the
// keys correct, attempted, failed and metrics. It exits 1 when an
// output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload once (see BENCHMARK.json)")
		seed         = flag.Int64("seed", 42, "workload seed")
		seconds      = flag.Float64("seconds", 0, "measuring window per run (0: BENCHMARK.json run_seconds)")
		trace        = flag.Int("trace", 0, "1: report per-layer metrics from a traced, profiled run")
		traced       = flag.Bool("traced", false, "suite: add one traced run per workload")
		compare      = flag.Bool("compare", false, "compare two suite result files: --compare A.json B.json")
	)
	flag.Parse()
	// run.sh starts the benchmark from the repository root.
	code, err := dispatch(os.Stdout, ".", *workloadName, *seed, *seconds, *trace, *traced, *compare, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxlbench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func dispatch(w io.Writer, root, name string, seed int64, seconds float64, trace int,
	traced, compare bool, args []string) (int, error) {
	sp, err := loadSpec(root)
	if err != nil {
		return 2, err
	}
	if compare {
		if len(args) != 2 {
			return 2, fmt.Errorf("--compare takes two result files")
		}
		return compareResults(w, sp, args[0], args[1])
	}
	if len(args) > 0 {
		return 2, fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if trace != 0 && trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if name == "" {
		return runSuite(w, sp, suiteOpts{root: root, seed: seed, seconds: seconds, traced: traced})
	}
	wl, err := lookupWorkload(root, name)
	if err != nil {
		return 2, err
	}
	out, err := measure(wl, runOpts{
		seed:    seed,
		seconds: seconds,
		traced:  trace == 1,
		outDir:  filepath.Join(root, "bench", "out"),
	})
	if err != nil {
		return 1, err
	}
	if err := emit(w, sp, out); err != nil {
		return 1, err
	}
	if !out.Correct {
		return 1, nil
	}
	return 0, nil
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints a run: a summary, its problems, the detail record, and
// the result line carrying exactly the metrics BENCHMARK.json lists.
// An end-to-end metric the run did not measure is an error; a per-layer
// metric of a layer the workload does not reach reads 0.
func emit(w io.Writer, sp *spec, out *runOutput) error {
	res := result{Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]valueOfUnit{}}
	for _, m := range sp.metricsFor(out.Traced) {
		v, ok := out.Metrics[m.Name]
		if !ok && !out.Traced {
			return fmt.Errorf("%s: end-to-end metric %s not measured", out.Workload, m.Name)
		}
		res.Metrics[m.Name] = valueOfUnit{Value: v, Unit: m.Unit}
	}
	fmt.Fprintf(w, "workload %s seed %d: %d passes, %d steps, %d failed\n",
		out.Workload, out.Seed, out.Passes, out.Attempted, out.Failed)
	for _, p := range out.Problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	for _, name := range slices.Sorted(maps.Keys(out.SelfMs)) {
		fmt.Fprintf(w, "span %-32s self %10.1f ms\n", name, out.SelfMs[name])
	}
	fmt.Fprintf(w, "sim_digest %s\n", out.SimDigest)
	detail, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "detail %s\n", detail)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}
