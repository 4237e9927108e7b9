package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// suiteRuns is how many fresh-process runs a suite makes per workload.
const suiteRuns = 5

type suiteOpts struct {
	root    string
	seed    int64
	seconds float64
	traced  bool
}

// suiteFile is the record a suite writes to bench/out/ and --compare reads.
type suiteFile struct {
	Env       suiteEnv        `json:"env"`
	Workloads []suiteWorkload `json:"workloads"`
}

type suiteEnv struct {
	envInfo
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Runs    int     `json:"runs"`
}

type suiteWorkload struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	SimDigest string                 `json:"sim_digest"`
	Metrics   map[string]metricStats `json:"metrics"`
	// Deterministic are the simulated values every run must repeat.
	Deterministic map[string]float64 `json:"deterministic"`
	// PerLayer is the traced run's metrics, when there is one.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

type metricStats struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// runSuite runs every workload suiteRuns times, each run a fresh
// process, alternating the workload order between rounds; then one
// traced run per workload if asked. It prints each end-to-end metric's
// median and quartiles, checks that every run passed its output checks
// and that all runs of a workload agree on every simulated value, and
// writes the record to bench/out/.
func runSuite(w io.Writer, sp *spec, o suiteOpts) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 2, err
	}
	names := make([]string, len(sp.Workloads))
	for i, wl := range sp.Workloads {
		names[i] = wl.Name
	}
	runs := map[string][]*runOutput{}
	child := func(name string, trace int) error {
		args := []string{"--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		out, perr := parseDetail(stdout)
		if perr != nil {
			return fmt.Errorf("%s run: %v (exit: %v)", name, perr, err)
		}
		runs[name] = append(runs[name], out)
		fmt.Fprintf(w, "  %-16s trace=%d  passes %-3d steps %-5d failed %d\n",
			name, trace, out.Passes, out.Attempted, out.Failed)
		return nil
	}
	for r := 0; r < suiteRuns; r++ {
		fmt.Fprintf(w, "round %d/%d\n", r+1, suiteRuns)
		for i := range names {
			name := names[i]
			if r%2 == 1 {
				name = names[len(names)-1-i]
			}
			if err := child(name, 0); err != nil {
				return 1, err
			}
		}
	}
	if o.traced {
		fmt.Fprintln(w, "traced runs")
		for _, name := range names {
			if err := child(name, 1); err != nil {
				return 1, err
			}
		}
	}

	env := hostEnv()
	env.CPUModel, env.Commit = cpuModel(), gitCommit(o.root)
	file := suiteFile{Env: suiteEnv{envInfo: env, Seed: o.seed, Seconds: o.seconds, Runs: suiteRuns}}
	ok := true
	for _, name := range names {
		sw := suiteWorkload{Name: name, Correct: true, Metrics: map[string]metricStats{}}
		for _, out := range runs[name] {
			if !out.Correct {
				sw.Correct = false
				fmt.Fprintf(w, "FAIL %s: a run failed %d of %d steps\n", name, out.Failed, out.Attempted)
			}
			if sw.Deterministic == nil {
				sw.SimDigest, sw.Deterministic = out.SimDigest, out.Counts
			} else if out.SimDigest != sw.SimDigest || !maps.Equal(out.Counts, sw.Deterministic) {
				sw.Correct = false
				fmt.Fprintf(w, "FAIL %s: runs disagree on the simulated outputs (sim_digest %s vs %s)\n",
					name, out.SimDigest, sw.SimDigest)
			}
			if out.Traced {
				sw.PerLayer = out.Metrics
			}
		}
		for _, m := range sp.EndToEnd {
			var vals []float64
			for _, out := range runs[name] {
				if !out.Traced {
					vals = append(vals, out.Metrics[m.Name])
				}
			}
			q1, q3 := quartiles(vals)
			sw.Metrics[m.Name] = metricStats{Unit: m.Unit, Values: vals, Median: median(vals), Q1: q1, Q3: q3}
		}
		ok = ok && sw.Correct
		file.Workloads = append(file.Workloads, sw)
	}

	printSuite(w, sp, &file)
	dir := filepath.Join(o.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	path := filepath.Join(dir, fmt.Sprintf("result-seed%d-%s.json", o.seed, time.Now().Format("20060102-150405")))
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	if !ok {
		return 1, nil
	}
	return 0, nil
}

// parseDetail reads a run's detail line and checks its result line.
func parseDetail(stdout []byte) (*runOutput, error) {
	var out *runOutput
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			out = &runOutput{}
			if err := json.Unmarshal([]byte(rest), out); err != nil {
				return nil, fmt.Errorf("bad detail line: %v", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if out == nil {
		return nil, fmt.Errorf("no detail line in output")
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %v", err)
	}
	return out, nil
}

func printSuite(w io.Writer, sp *spec, f *suiteFile) {
	fmt.Fprintf(w, "\nseed %d, %d runs of %gs, GOMAXPROCS %d of %d CPUs, GODEBUG %q, %s, %s, commit %s\n",
		f.Env.Seed, f.Env.Runs, f.Env.Seconds, f.Env.GOMAXPROCS, f.Env.NumCPU, f.Env.GODEBUG,
		f.Env.CPUModel, f.Env.GoVersion, f.Env.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tspread\tbound\t")
	for _, sw := range f.Workloads {
		for _, m := range sp.EndToEnd {
			st := sw.Metrics[m.Name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t\n", sw.Name, m.Name, st.Unit,
				st.Median, st.Q1, st.Q3, 100*ratio(st.Q3-st.Q1, st.Median), 100*m.Bound)
		}
	}
	tw.Flush()
	for _, sw := range f.Workloads {
		verdict := "ok"
		if !sw.Correct {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "%-16s checks %-6s sim_digest %s\n", sw.Name, verdict, sw.SimDigest)
	}
	for _, sw := range f.Workloads {
		if sw.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "\nper-layer metrics, %s (traced run)\n", sw.Name)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, m := range sp.PerLayer {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, sw.PerLayer[m.Name], m.Unit)
		}
		tw.Flush()
	}
}

// cpuModel is the first CPU's model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or "unknown" outside git.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareResults judges suite result B against baseline A, one row per
// workload: each end-to-end metric's median change, read against the
// metric's bound in BENCHMARK.json. A change within the bound is
// "same"; beyond it "better" or "WORSE"; and where either side's
// quartile spread exceeds the bound the change cannot be told from
// noise, so it reads "unresolved" unless every run of B beats every run
// of A. The last column says whether the simulated outputs match.
// Exits 1 on any WORSE or on a side whose checks failed.
func compareResults(w io.Writer, sp *spec, pathA, pathB string) (int, error) {
	var a, b suiteFile
	for _, x := range []struct {
		path string
		f    *suiteFile
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return 2, err
		}
		if err := json.Unmarshal(data, x.f); err != nil {
			return 2, fmt.Errorf("%s: %w", x.path, err)
		}
	}
	for _, x := range []struct {
		tag string
		f   *suiteFile
	}{{"A", &a}, {"B", &b}} {
		e := x.f.Env
		fmt.Fprintf(w, "%s: commit %s, seed %d, %d runs of %gs, GOMAXPROCS %d of %d CPUs, GODEBUG %q, %s, %s\n",
			x.tag, e.Commit, e.Seed, e.Runs, e.Seconds, e.GOMAXPROCS, e.NumCPU, e.GODEBUG, e.CPUModel, e.GoVersion)
	}
	base := map[string]suiteWorkload{}
	for _, sw := range a.Workloads {
		base[sw.Name] = sw
	}
	worse := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload\t")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(tw, "%s (bound %.0f%%)\t", m.Name, 100*m.Bound)
	}
	fmt.Fprintln(tw, "simulated\t")
	for _, nb := range b.Workloads {
		na, ok := base[nb.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\tmissing from A\t\n", nb.Name)
			continue
		}
		fmt.Fprintf(tw, "%s\t", nb.Name)
		for _, m := range sp.EndToEnd {
			verdict, change := judge(m, na.Metrics[m.Name], nb.Metrics[m.Name])
			worse = worse || verdict == "WORSE"
			fmt.Fprintf(tw, "%+.1f%% %s\t", 100*change, verdict)
		}
		sim := "same"
		switch {
		case !na.Correct || !nb.Correct:
			sim, worse = "checks FAILED", true
		case na.SimDigest != nb.SimDigest || !maps.Equal(na.Deterministic, nb.Deterministic):
			sim = "CHANGED"
		}
		fmt.Fprintf(tw, "%s\t\n", sim)
	}
	tw.Flush()
	if worse {
		return 1, nil
	}
	return 0, nil
}

// judge compares one metric's runs; change is B's median over A's,
// minus one.
func judge(m metricSpec, a, b metricStats) (verdict string, change float64) {
	change = ratio(b.Median, a.Median) - 1
	gain := -change
	if m.Better == "higher" {
		gain = change
	}
	spread := max(ratio(a.Q3-a.Q1, a.Median), ratio(b.Q3-b.Q1, b.Median))
	switch {
	case spread > m.Bound:
		if separated(m, a.Values, b.Values) {
			return "better", change
		}
		return "unresolved", change
	case gain < -m.Bound:
		return "WORSE", change
	case gain > m.Bound:
		return "better", change
	}
	return "same", change
}

// separated reports whether every run of b beats every run of a.
func separated(m metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
