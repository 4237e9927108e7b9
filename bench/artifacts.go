package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cxlpool/internal/experiments"
	"cxlpool/internal/params"
	"cxlpool/internal/report"
)

// goldenSeed is the seed testdata/all_seed42.golden was captured at.
const goldenSeed = 42

// goldenPath is the `cxlpool all -seed 42` golden, relative to the
// repository root.
var goldenPath = filepath.Join("testdata", "all_seed42.golden")

// artifactsInstance regenerates the paper: every scenario of the list
// at default parameters, each rendered to text and to JSON. Set-up is
// what RunDefault does before Run: resolving each scenario's seeded
// parameter set.
type artifactsInstance struct {
	root      string
	seed      int64
	scenarios []experiments.Scenario
	params    []*params.Set
	texts     []string
	jsons     [][]byte
	err       error
}

func artifactsSetup(root string, list []experiments.Scenario) func(int64, *tracer) (instance, error) {
	return func(seed int64, _ *tracer) (instance, error) {
		in := &artifactsInstance{root: root, seed: seed, scenarios: list}
		for _, s := range list {
			p := s.NewParams()
			if err := p.Set("seed", strconv.FormatInt(seed, 10)); err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
			in.params = append(in.params, p)
		}
		return in, nil
	}
}

func (in *artifactsInstance) run(tr *tracer) error {
	ctx := context.Background()
	for i, s := range in.scenarios {
		tr.begin("experiments." + s.Name)
		rep, err := s.Run(ctx, in.params[i])
		if err != nil {
			tr.end()
			in.err = fmt.Errorf("%s: %w", s.Name, err)
			return in.err
		}
		tr.begin("report.text")
		text := rep.Text()
		tr.end()
		tr.begin("report.json")
		js, err := rep.MarshalJSON()
		tr.end()
		tr.end()
		if err != nil {
			in.err = fmt.Errorf("%s: marshal: %w", s.Name, err)
			return in.err
		}
		in.texts = append(in.texts, text)
		in.jsons = append(in.jsons, js)
	}
	return nil
}

func (in *artifactsInstance) finish() passResult {
	res := passResult{steps: len(in.texts), counts: map[string]float64{}}
	if in.err != nil {
		res.steps++
		res.fail(len(in.texts), "%v", in.err)
	}
	// The golden is `cxlpool all`: each scenario's text under its
	// banner. Each section is compared where the golden has it.
	var golden []byte
	if in.seed == goldenSeed && len(in.scenarios) == len(experiments.Artifacts()) {
		var err error
		if golden, err = os.ReadFile(filepath.Join(in.root, goldenPath)); err != nil {
			res.fail(res.steps-1, "golden: %v", err)
		}
	}
	var all strings.Builder
	for i, text := range in.texts {
		s := in.scenarios[i]
		off := all.Len()
		fmt.Fprintf(&all, "================ %s — %s ================\n%s\n", s.Name, s.Paper, text)
		if golden != nil && (all.Len() > len(golden) || all.String()[off:] != string(golden[off:all.Len()])) {
			res.fail(i, "%s: text differs from %s", s.Name, goldenPath)
		}
		var back report.Report
		if err := json.Unmarshal(in.jsons[i], &back); err != nil {
			res.fail(i, "%s: JSON does not parse back: %v", s.Name, err)
		} else if back.Text() != text {
			res.fail(i, "%s: JSON round trip renders different text", s.Name)
		}
	}
	if golden != nil && in.err == nil && all.Len() != len(golden) {
		res.fail(res.steps-1, "artifacts text is %d bytes, %s %d", all.Len(), goldenPath, len(golden))
	}
	res.digest = fmt.Sprintf("%x", sha256.Sum256([]byte(all.String())))
	res.counts["report.text_bytes"] = float64(all.Len())
	return res
}
