package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file is the fixture-test harness: a stdlib re-implementation of
// the golang.org/x/tools analysistest want-comment protocol. Fixture
// packages live under testdata/src/<importpath>; every line that should
// produce a finding carries a trailing comment of the form
//
//	// want "regexp" ["regexp" ...]
//
// and the harness fails on findings without a matching want, and wants
// without a matching finding, exactly like the original.

// wantComment is one expectation: a finding on this file:line whose
// message matches re.
type wantComment struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants extracts want expectations from a fixture package's
// sources.
func parseWants(pkg *Package) ([]*wantComment, error) {
	var wants []*wantComment
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					if rest[0] != '"' {
						return nil, fmt.Errorf("%s:%d: malformed want comment: %q", pos.Filename, pos.Line, c.Text)
					}
					lit, tail, err := cutQuoted(rest)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &wantComment{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(tail)
				}
			}
		}
	}
	return wants, nil
}

// cutQuoted splits a leading Go-quoted string off rest.
func cutQuoted(rest string) (lit, tail string, err error) {
	for i := 1; i < len(rest); i++ {
		if rest[i] == '\\' {
			i++
			continue
		}
		if rest[i] == '"' {
			lit, err := strconv.Unquote(rest[:i+1])
			return lit, rest[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated want pattern: %q", rest)
}

// runFixture loads testdata/src/<path>, runs the analyzers through the
// suppression-aware Check, and diff-checks the findings against the
// fixture's want comments. callers are further fixture packages whose
// files join the target's in the reference index TestOnly reads,
// standing in for the caller roots the driver loads.
func runFixture(t *testing.T, path string, analyzers []*Analyzer, callers ...string) {
	t.Helper()
	pkg, refs, err := loadFixture(path, callers...)
	if err != nil {
		t.Errorf("loading fixture %s: %v", path, err)
		return
	}
	wants, err := parseWants(pkg)
	if err != nil {
		t.Errorf("fixture %s: %v", path, err)
		return
	}
	diags := Check(pkg, analyzers, refs)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected finding [%s]: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

// fixtureImporter resolves imports for analysistest-style fixtures: an
// import path found under testdata/src/<path> is type-checked from the
// fixture tree (so fixtures can model the bufpool/sim contract packages
// without importing the real ones); anything else falls through to the
// stdlib source importer.
type fixtureImporter struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := loadFixtureDir(fi.fset, dir, path, fi)
		if err != nil {
			return nil, err
		}
		fi.pkgs[path] = pkg.Types
		return pkg.Types, nil
	}
	return fi.std.Import(path)
}

// loadFixtureDir parses every .go file in dir and type-checks them as
// import path path.
func loadFixtureDir(fset *token.FileSet, dir, path string, imp types.Importer) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(filenames)
	if len(filenames) == 0 {
		return nil, fmt.Errorf("lint: fixture %s has no .go files", dir)
	}
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking fixture %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// loadFixture loads testdata/src/<path> and the caller fixtures, and
// indexes the references in all of them.
func loadFixture(path string, callers ...string) (*Package, *Refs, error) {
	fset := token.NewFileSet()
	fi := &fixtureImporter{
		root: filepath.Join("testdata", "src"),
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
	}
	var units []*Package
	for _, p := range append([]string{path}, callers...) {
		pkg, err := loadFixtureDir(fset, filepath.Join(fi.root, filepath.FromSlash(p)), p, fi)
		if err != nil {
			return nil, nil, err
		}
		units = append(units, pkg)
	}
	return units[0], NewRefs(units), nil
}
