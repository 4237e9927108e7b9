// Command poollint is the repository's static-analysis gate: a
// multichecker that runs the internal/lint analyzer suite (mapiter,
// wallclock, bufown, simhandle, testonly) over Go packages and exits
// nonzero on findings. It enforces, at vet time, the contracts the test
// suite can only catch after the fact: deterministic iteration in the
// packages that feed reports, no wall-clock time or global randomness
// inside the simulated world, bufpool Get/Put ownership pairing, sim
// event handle validity after Cancel, and no exported internal/ API
// that only tests reach.
//
// Usage:
//
//	poollint [-list] [packages...]
//
// Package patterns are resolved by `go list`; the default is ./....
// testonly needs every caller, so the whole module is loaded whatever
// the patterns, and so are the non-test files of the nested benchmark
// module in bench/; findings are printed only for the packages the
// patterns name.
// Findings print as file:line:col: [analyzer] message. Exit status is 0
// for a clean tree, 1 when findings exist, and 2 on usage or load
// errors. Deliberate exceptions are annotated in source with
// //lint:ordered <reason> (mapiter) or //lint:allow <analyzer> <reason>;
// an annotation without a reason is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"cxlpool/internal/lint"
)

// benchModule is the nested benchmark module: its non-test code calls
// the simulator's internal/ API, so testonly counts it as a caller.
const benchModule = "bench"

// listPackage is the subset of `go list -json` output the driver needs.
type listPackage struct {
	Dir            string
	ImportPath     string
	GoFiles        []string
	TestGoFiles    []string
	XTestGoFiles   []string
	IgnoredGoFiles []string
}

func main() {
	listOnly := flag.Bool("list", false, "list the analyzers in the suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: poollint [-list] [packages...]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *listOnly {
		for _, a := range lint.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	targets, err := goList(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "poollint: %v\n", err)
		os.Exit(2)
	}
	module, err := goList(".", []string{"./..."})
	if err != nil {
		fmt.Fprintf(os.Stderr, "poollint: %v\n", err)
		os.Exit(2)
	}
	check := make(map[string]bool)
	for _, lp := range targets {
		check[lp.ImportPath] = true
	}

	loader := lint.NewLoader()
	loadErrs := 0
	load := func(path string, files []string) *lint.Package {
		if len(files) == 0 {
			return nil
		}
		pkg, err := loader.LoadFiles(path, files)
		if err != nil {
			fmt.Fprintf(os.Stderr, "poollint: %v\n", err)
			loadErrs++
		}
		return pkg
	}
	// Unit 1: the package plus its in-package tests; unit 2: the
	// external test package. Both are load-bearing — the PR 1/PR 3 bug
	// class lives in product code, but test files hold golden assertions
	// whose own determinism matters just as much.
	var units, checked []*lint.Package
	for _, lp := range module {
		for _, pkg := range []*lint.Package{
			load(lp.ImportPath, join(lp.Dir, lp.GoFiles, lp.TestGoFiles)),
			load(lp.ImportPath+"_test", join(lp.Dir, lp.XTestGoFiles)),
		} {
			if pkg == nil {
				continue
			}
			units = append(units, pkg)
			if check[lp.ImportPath] {
				checked = append(checked, pkg)
			}
		}
	}
	bench, err := goList(benchModule, []string{"./..."})
	if err != nil {
		fmt.Fprintf(os.Stderr, "poollint: %s: %v\n", benchModule, err)
		os.Exit(2)
	}
	for _, lp := range bench {
		if pkg := load(lp.ImportPath, join(lp.Dir, lp.GoFiles)); pkg != nil {
			units = append(units, pkg)
		}
	}
	if loadErrs > 0 {
		os.Exit(2)
	}

	refs := lint.NewRefs(units)
	analyzers := lint.All()
	findings := 0
	cwd, _ := os.Getwd()
	for _, pkg := range checked {
		for _, d := range lint.Check(pkg, analyzers, refs) {
			pos := pkg.Fset.Position(d.Pos)
			name := pos.Filename
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			fmt.Printf("%s:%d:%d: [%s] %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "poollint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// goList expands package patterns through the go tool, run in dir.
func goList(dir string, patterns []string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, patterns...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list: %s", strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, err
	}
	var pkgs []listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var lp listPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

func join(dir string, lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		for _, f := range l {
			out = append(out, filepath.Join(dir, f))
		}
	}
	return out
}
