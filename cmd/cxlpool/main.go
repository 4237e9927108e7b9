// Command cxlpool regenerates the paper's tables and figures through
// the Scenario API.
//
// Usage:
//
//	cxlpool list                          list scenarios (registry order)
//	cxlpool all [flags]                   run every scenario
//	cxlpool <scenario> [flags]            run one scenario
//	cxlpool sweep <scenario> -set p=a,b[,c...] [flags]
//	                                      cross-product parameter sweep
//
// Every scenario's flags are generated from its parameter
// declarations (`cxlpool help` prints them all); `-seed` and `-format
// {text,json,csv}` work everywhere, and `-workers` bounds the worker
// pool for `all`, `sweep`, and any scenario that declares it;
// `-cpuprofile FILE` writes a pprof CPU profile of the run. Text
// output is a deterministic rendering of the structured report: a
// given seed produces byte-identical bytes at any worker count.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"cxlpool/internal/experiments"
	"cxlpool/internal/params"
	"cxlpool/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch cmd := os.Args[1]; cmd {
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	case "list":
		writeList(os.Stdout)
	case "all":
		runAll(os.Args[2:])
	case "sweep":
		runSweep(os.Args[2:])
	default:
		runOne(cmd, os.Args[2:])
	}
}

// usage is generated from the scenario registry: global flags first,
// then every scenario with its declared parameters (kind, default,
// bounds) — the flag docs cannot drift from the code that reads them.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: cxlpool <list|all|sweep|scenario> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "commands:")
	fmt.Fprintln(w, "  list                     list scenarios in registry order")
	fmt.Fprintln(w, "  all                      run every scenario (-seed, -workers, -format)")
	fmt.Fprintln(w, "  <scenario>               run one scenario (flags below, plus -format)")
	fmt.Fprintln(w, "  sweep <scenario> -set p=a,b[,c...]")
	fmt.Fprintln(w, "                           run the cross-product of one or more -set axes,")
	fmt.Fprintln(w, "                           one structured record per point")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "global flags:")
	fmt.Fprintln(w, "  -seed N                  simulation seed (default 42)")
	fmt.Fprintln(w, "  -format {text,json,csv}  output format (default text)")
	fmt.Fprintln(w, "  -workers W               parallel workers for all/sweep (0 = GOMAXPROCS,")
	fmt.Fprintln(w, "                           1 = sequential); output bytes never depend on W")
	fmt.Fprintln(w, "  -cpuprofile FILE         write a pprof CPU profile of the run to FILE")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "scenarios:")
	for _, s := range experiments.All() {
		fmt.Fprintf(w, "  %-10s %s\n", s.Name, s.Paper)
		for _, sp := range s.Params {
			fmt.Fprintf(w, "      -%-12s %s (%s)\n", sp.Name, sp.Help, sp.Usage())
		}
	}
}

// writeList prints the registry, one scenario per line, in All() order.
func writeList(w io.Writer) {
	for _, s := range experiments.All() {
		fmt.Fprintf(w, "%-10s %s\n", s.Name, s.Paper)
	}
}

func fatalf(code int, format string, args ...any) {
	stopCPUProfile()
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// stopCPUProfile ends the -cpuprofile run started by startCPUProfile;
// fatalf calls it too, so a failing run still leaves its profile.
var stopCPUProfile = func() {}

// cpuProfileFlag declares -cpuprofile on a command's flag set.
func cpuProfileFlag(fs *flag.FlagSet) *string {
	return fs.String("cpuprofile", "", "write a pprof CPU profile of the run to `FILE`")
}

// startCPUProfile starts profiling into path (nothing when empty).
// Real clocks stay in cmd/: profiling is the simulator's host cost,
// never part of a simulated result.
func startCPUProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf(1, "cxlpool: cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fatalf(1, "cxlpool: cpuprofile: %v", err)
	}
	stopCPUProfile = func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cxlpool: cpuprofile: %v\n", err)
		}
	}
}

// checkFormat validates -format.
func checkFormat(f string) {
	switch f {
	case "text", "json", "csv":
	default:
		fatalf(2, "cxlpool: unknown format %q (want text, json, or csv)", f)
	}
}

// newFlagSet returns a flag set that prints the generated usage on
// error instead of Go's default (alphabetical, registry-blind) dump.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() { usage(os.Stderr) }
	return fs
}

// runAll runs every scenario in registry order.
func runAll(args []string) {
	fs := newFlagSet("all")
	seed := fs.Int64("seed", 42, "simulation seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS, 1 = sequential)")
	format := fs.String("format", "text", "output format: text, json, or csv")
	cpuprofile := cpuProfileFlag(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	checkFormat(*format)
	startCPUProfile(*cpuprofile)
	defer stopCPUProfile()
	switch *format {
	case "text":
		if err := experiments.RunAll(os.Stdout, *seed, *workers); err != nil {
			fatalf(1, "cxlpool: %v", err)
		}
	default:
		reps, err := experiments.RunAllReports(context.Background(), *seed, *workers)
		if err != nil {
			fatalf(1, "cxlpool: %v", err)
		}
		emitReports(reps, *format)
	}
}

// emitReports writes reports as one JSON array or one CSV frame.
func emitReports(reps []*report.Report, format string) {
	if format == "json" {
		out, err := json.MarshalIndent(reps, "", "  ")
		if err != nil {
			fatalf(1, "cxlpool: encode: %v", err)
		}
		os.Stdout.Write(append(out, '\n'))
		return
	}
	fmt.Println(report.CSVHeader)
	for _, rep := range reps {
		os.Stdout.WriteString(rep.CSVRecords())
	}
}

// runOne runs a single scenario with flags generated from its
// parameter declarations.
func runOne(name string, args []string) {
	s, ok := experiments.Lookup(name)
	if !ok {
		if hint, close := experiments.Suggest(name); close {
			fatalf(2, "cxlpool: unknown experiment %q (did you mean %q? see `cxlpool list`)", name, hint)
		}
		fatalf(2, "cxlpool: unknown experiment %q (see `cxlpool list`)", name)
	}
	p := s.NewParams()
	fs := newFlagSet(name)
	specs := p.Specs()
	vals := make([]*string, len(specs))
	for i, sp := range specs {
		vals[i] = fs.String(sp.Name, sp.Def, sp.Help)
	}
	format := fs.String("format", "text", "output format: text, json, or csv")
	cpuprofile := cpuProfileFlag(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	checkFormat(*format)
	for i, sp := range specs {
		if err := p.Set(sp.Name, *vals[i]); err != nil {
			fatalf(2, "cxlpool: %s: %v", name, err)
		}
	}
	startCPUProfile(*cpuprofile)
	defer stopCPUProfile()
	rep, err := s.Run(context.Background(), p)
	if err != nil {
		fatalf(1, "cxlpool: %s: %v", name, err)
	}
	switch *format {
	case "text":
		os.Stdout.WriteString(rep.Text())
	case "json":
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf(1, "cxlpool: encode: %v", err)
		}
		os.Stdout.Write(append(out, '\n'))
	case "csv":
		os.Stdout.WriteString(rep.CSV())
	}
}

// axisFlags collects repeated -set param=v1,v2 axes.
type axisFlags []experiments.Axis

func (a *axisFlags) String() string { return "" }

func (a *axisFlags) Set(v string) error {
	name, vals, ok := strings.Cut(v, "=")
	if !ok || name == "" || vals == "" {
		return fmt.Errorf("want param=v1,v2,...")
	}
	*a = append(*a, experiments.Axis{Name: name, Values: strings.Split(vals, ",")})
	return nil
}

// runSweep runs the cross-product of -set axes over one scenario and
// emits one record per point.
func runSweep(args []string) {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		fatalf(2, "cxlpool: usage: cxlpool sweep <scenario> -set param=v1,v2[,...] [-seed N] [-workers W] [-format F]")
	}
	name := args[0]
	s, ok := experiments.Lookup(name)
	if !ok {
		if hint, close := experiments.Suggest(name); close {
			fatalf(2, "cxlpool: sweep: unknown experiment %q (did you mean %q?)", name, hint)
		}
		fatalf(2, "cxlpool: sweep: unknown experiment %q (see `cxlpool list`)", name)
	}
	fs := newFlagSet("sweep")
	var axes axisFlags
	fs.Var(&axes, "set", "sweep axis param=v1,v2,... (repeatable; axes cross-product)")
	seed := fs.Int64("seed", 42, "simulation seed")
	workers := fs.Int("workers", 0, "parallel workers across sweep points")
	format := fs.String("format", "text", "output format: text, json, or csv")
	cpuprofile := cpuProfileFlag(fs)
	if err := fs.Parse(args[1:]); err != nil {
		os.Exit(2)
	}
	checkFormat(*format)
	if len(axes) == 0 {
		fatalf(2, "cxlpool: sweep: need at least one -set param=v1,v2,...")
	}
	base := s.NewParams()
	// Unknown axis names get the same did-you-mean treatment as unknown
	// scenario names, against the scenario's declared parameters.
	for _, ax := range axes {
		if base.Has(ax.Name) {
			continue
		}
		if hint, close := experiments.SuggestParam(s, ax.Name); close {
			fatalf(2, "cxlpool: sweep: %s has no parameter %q (did you mean %q? see `cxlpool help`)",
				s.Name, ax.Name, hint)
		}
		fatalf(2, "cxlpool: sweep: %s has no parameter %q (see `cxlpool help`)", s.Name, ax.Name)
	}
	if err := base.Set("seed", fmt.Sprint(*seed)); err != nil {
		fatalf(2, "cxlpool: sweep: %v", err)
	}
	startCPUProfile(*cpuprofile)
	defer stopCPUProfile()
	pts, err := experiments.Sweep(context.Background(), s, base, axes, *workers)
	if err != nil {
		// Validation errors (unknown axis, out-of-range value, duplicate
		// axis) are usage errors; a scenario failing after points start
		// running is a runtime error.
		code := 1
		if errors.Is(err, experiments.ErrInvalidSweep) {
			code = 2
		}
		fatalf(code, "cxlpool: sweep: %v", err)
	}
	switch *format {
	case "text":
		for _, pt := range pts {
			fmt.Printf("---- sweep %s %s ----\n", s.Name, overrideString(pt.Overrides))
			os.Stdout.WriteString(pt.Report.Text())
			fmt.Println()
		}
	case "json":
		type jsonPoint struct {
			Overrides []params.KV    `json:"overrides"`
			Report    *report.Report `json:"report"`
		}
		out := make([]jsonPoint, len(pts))
		for i, pt := range pts {
			out[i] = jsonPoint{Overrides: pt.Overrides, Report: pt.Report}
		}
		enc, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatalf(1, "cxlpool: sweep: encode: %v", err)
		}
		os.Stdout.Write(append(enc, '\n'))
	case "csv":
		os.Stdout.WriteString(sweepCSV(s.Name, pts))
	}
}

func overrideString(kvs []params.KV) string {
	parts := make([]string, len(kvs))
	for i, kv := range kvs {
		parts[i] = kv.Name + "=" + kv.Value
	}
	return strings.Join(parts, " ")
}

// sweepCSV renders one row per sweep point: the axis values followed
// by every scalar the scenario reports (wide form — all points of one
// sweep share a scenario, hence a scalar set).
func sweepCSV(name string, pts []experiments.SweepPoint) string {
	var b strings.Builder
	if len(pts) == 0 {
		return ""
	}
	b.WriteString("scenario")
	for _, kv := range pts[0].Overrides {
		b.WriteString(",")
		b.WriteString(kv.Name)
	}
	// Scalar columns are the ordered union across points: per-rack
	// counters appear and disappear as the swept shape changes (e.g.
	// racks=2,4,8), and every point must land under the same header.
	var scalars []string
	seen := map[string]bool{}
	for _, pt := range pts {
		for _, sc := range pt.Report.Scalars {
			if !seen[sc.Name] {
				seen[sc.Name] = true
				scalars = append(scalars, sc.Name)
			}
		}
	}
	for _, col := range scalars {
		b.WriteString(",")
		b.WriteString(col)
	}
	b.WriteString("\n")
	for _, pt := range pts {
		b.WriteString(name)
		for _, kv := range pt.Overrides {
			fmt.Fprintf(&b, ",%s", kv.Value)
		}
		byName := make(map[string]float64, len(pt.Report.Scalars))
		for _, sc := range pt.Report.Scalars {
			byName[sc.Name] = sc.Value
		}
		for _, col := range scalars {
			if v, ok := byName[col]; ok {
				fmt.Fprintf(&b, ",%g", v)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
