package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// span is one timed call into the simulator, recorded by the benchmark
// around a public function.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 for a pass's root.
	Parent int `json:"parent"`
	// Run is the pass the span belongs to.
	Run int `json:"run"`
}

// tracer keeps spans in memory until the run ends. A tracer that is
// off records nothing, so untraced passes pay only a branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	run   int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Run: t.run})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
}

// durationsMs returns the duration of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMs returns each span's duration minus the time its children
// cover, indexed like t.spans.
func (t *tracer) selfMs() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += float64(s.End-s.Start) / 1e6
		if s.Parent >= 0 {
			self[s.Parent] -= float64(s.End-s.Start) / 1e6
		}
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]float64 {
	ms := map[string]float64{}
	for i, v := range t.selfMs() {
		ms[t.spans[i].Name] += v
	}
	return ms
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// profLayers are the packages prof.layer.*_pct reports on their own;
// samples in any other cxlpool/internal package go to "other".
var profLayers = []string{
	"sim", "cache", "mem", "cxl", "shm", "core", "nicsim", "netsim",
	"orch", "cluster", "spine", "stack", "stranding", "experiments", "report",
}

// profIncl names the functions prof.incl.*_pct measures: the share of
// samples whose stack contains the function.
var profIncl = []struct{ metric, fn string }{
	{"vnic_send", "cxlpool/internal/core.(*VirtualNIC).Send"},
	{"vnic_bind", "cxlpool/internal/core.(*VirtualNIC).Bind"},
	{"agent_sweep", "cxlpool/internal/core.(*Agent).sweep"},
	{"sweep", "cxlpool/internal/cluster.(*Cluster).globalSweep"},
	{"admit", "cxlpool/internal/cluster.(*Cluster).admitEpoch"},
}

const (
	internalPrefix = "cxlpool/internal/"
	runEpochFn     = "cxlpool/internal/cluster.(*Cluster).RunEpoch"
	rackEpochFn    = "cxlpool/internal/cluster.(*Cluster).runRackEpoch"
)

// profile is a CPU profile reduced to weighted call stacks, leaf first.
type profile struct {
	stacks  [][]string
	weights []float64
}

// readProfile reduces a runtime/pprof CPU profile with the toolchain's
// `go tool pprof -traces`.
func readProfile(path string) (*profile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` text: blocks separated by dashed
// lines, each starting with the sample's value in front of its leaf
// frame, followed by one caller frame per line.
func parseTraces(out []byte) (*profile, error) {
	p := &profile{}
	var stack []string
	var weight float64
	flush := func() {
		if len(stack) > 0 {
			p.stacks = append(p.stacks, stack)
			p.weights = append(p.weights, weight)
		}
		stack, weight = nil, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	started, head := false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started, head = true, true
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue
		}
		if head {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: bad sample value in %q", line)
			}
			weight, head = d.Seconds(), false
			fields = fields[1:]
		}
		// Label lines ("key:value") carry no frame.
		if len(fields) > 0 && !strings.Contains(fields[0], ":") {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// layerOf charges a stack to its innermost cxlpool/internal package, so
// runtime helpers (maps, memmove, malloc) count against their caller.
// Stacks with no simulator frame belong to the benchmark's own code
// ("harness") or to the Go runtime, GC workers included.
func layerOf(stack []string) string {
	harness := false
	for _, fn := range stack {
		if pkg, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			if slices.Contains(profLayers, pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			harness = true
		}
	}
	if harness {
		return "harness"
	}
	return "runtime"
}

// shares returns the prof.layer.* and prof.incl.* percentages.
func (p *profile) shares() map[string]float64 {
	out := map[string]float64{}
	for _, l := range append(append([]string(nil), profLayers...), "other", "runtime", "harness") {
		out["prof.layer."+l+"_pct"] = 0
	}
	for _, in := range profIncl {
		out["prof.incl."+in.metric+"_pct"] = 0
	}
	out["prof.incl.control_pct"] = 0
	var total float64
	for i, st := range p.stacks {
		w := p.weights[i]
		total += w
		out["prof.layer."+layerOf(st)+"_pct"] += w
		has := map[string]bool{}
		for _, fn := range st {
			has[fn] = true
		}
		for _, in := range profIncl {
			if has[in.fn] {
				out["prof.incl."+in.metric+"_pct"] += w
			}
		}
		if has[runEpochFn] && !has[rackEpochFn] {
			out["prof.incl.control_pct"] += w
		}
	}
	for k, v := range out {
		out[k] = 100 * ratio(v, total)
	}
	return out
}
