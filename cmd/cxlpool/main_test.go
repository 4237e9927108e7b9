package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cxlpool/internal/experiments"
)

// `cxlpool list` must present the registry verbatim: same names, same
// order as experiments.All().
func TestListMatchesRegistryOrder(t *testing.T) {
	var buf bytes.Buffer
	writeList(&buf)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	all := experiments.All()
	if len(lines) != len(all) {
		t.Fatalf("list has %d lines, registry has %d scenarios", len(lines), len(all))
	}
	for i, s := range all {
		name := strings.Fields(lines[i])[0]
		if name != s.Name {
			t.Errorf("list[%d] = %q, want %q", i, name, s.Name)
		}
		if !strings.Contains(lines[i], s.Paper) {
			t.Errorf("list[%d] missing paper reference %q: %q", i, s.Paper, lines[i])
		}
	}
}

// The generated usage must document every declared parameter of every
// scenario — including the -workers and -racks flags the hand-written
// usage used to omit — plus the global flags.
func TestUsageCoversRegistry(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	out := buf.String()
	for _, global := range []string{"-seed", "-format", "-workers", "-cpuprofile", "sweep"} {
		if !strings.Contains(out, global) {
			t.Errorf("usage missing global %q", global)
		}
	}
	for _, s := range experiments.All() {
		if !strings.Contains(out, s.Name) {
			t.Errorf("usage missing scenario %q", s.Name)
		}
		for _, sp := range s.Params {
			if !strings.Contains(out, "-"+sp.Name) {
				t.Errorf("usage missing %s's -%s flag", s.Name, sp.Name)
			}
			if !strings.Contains(out, sp.Help) {
				t.Errorf("usage missing help for %s.%s", s.Name, sp.Name)
			}
		}
	}
}

func TestAxisFlagParsing(t *testing.T) {
	var a axisFlags
	if err := a.Set("racks=2,4,8"); err != nil {
		t.Fatal(err)
	}
	if err := a.Set("seed=1,2"); err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || a[0].Name != "racks" || len(a[0].Values) != 3 || a[1].Values[1] != "2" {
		t.Fatalf("axes = %+v", a)
	}
	for _, bad := range []string{"racks", "=1,2", "racks="} {
		var b axisFlags
		if err := b.Set(bad); err == nil {
			t.Errorf("axis %q accepted", bad)
		}
	}
}

// -cpuprofile leaves a pprof profile: a gzip stream with a non-empty
// protobuf body.
func TestCPUProfileWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	runOne("sqrtn", []string{"-cpuprofile", path})

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("profile body is empty")
	}
}
