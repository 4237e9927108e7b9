// Package lint is the static-analysis layer that turns this repository's
// prose contracts into machine-checked law. Every load-bearing invariant
// the reproduction depends on — byte-identical output at any -workers
// count, the bufpool ownership contract, the sim event handle-validity
// contract — was historically enforced only dynamically (golden files,
// AllocsPerRun pins, chaos sweeps). The analyzers here catch the same bug
// classes at the AST, before a test ever runs. One more, testonly, keeps
// the exported surface lean: an exported internal/ identifier that only
// tests reach is a finding. It is the one module-wide analyzer; it reads
// a Refs index built over every loaded package and caller root.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, analysistest-style want comments) so the
// suite can migrate to the real multichecker mechanically if the external
// dependency ever becomes available; this build environment is hermetic,
// so the framework is implemented on the standard library alone
// (go/parser + go/types with the stdlib source importer).
//
// # Suppression policy
//
// Every analyzer finding is either fixed or explicitly annotated — the
// suite lands with zero unexplained suppressions. Two directive forms
// exist, both requiring a non-empty reason:
//
//	//lint:ordered <reason>          suppresses mapiter on that line
//	//lint:allow <analyzer> <reason> suppresses the named analyzer
//
// A directive applies to findings on its own line or on the line
// directly below it (for directives placed on their own comment line
// above a statement). A directive with a missing reason, or naming an
// unknown analyzer, is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned in a Package's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one named check. Run inspects a type-checked package
// through the Pass and reports findings via Pass.Report.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Refs     *Refs // module-wide references, for TestOnly; may be nil

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapIter, WallClock, BufOwn, SimHandle, TestOnly}
}

// analyzerNames is the set of valid names for //lint:allow directives.
func analyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// directive is one parsed //lint: comment.
type directive struct {
	pos      token.Pos
	analyzer string // analyzer it suppresses ("mapiter" for //lint:ordered)
	reason   string
	bad      string // non-empty: the directive itself is malformed
}

// parseDirectives scans a file's comments for //lint: directives and
// returns them keyed by the line they suppress. A directive suppresses
// findings on its own line; when it is the only thing on its line, it
// also suppresses findings on the next line.
func parseDirectives(fset *token.FileSet, file *ast.File) map[string][]directive {
	valid := analyzerNames()
	code := codeLines(fset, file)
	byLine := make(map[string][]directive)
	add := func(pos token.Pos, d directive) {
		p := fset.Position(pos)
		d.pos = pos
		// The directive covers its own line...
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		byLine[key] = append(byLine[key], d)
		// ...and, when nothing but the comment occupies its line
		// (own-line comment above a statement), the next.
		if !code[p.Line] {
			next := fmt.Sprintf("%s:%d", p.Filename, p.Line+1)
			byLine[next] = append(byLine[next], d)
		}
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				add(c.Pos(), directive{bad: "empty //lint: directive"})
				continue
			}
			switch fields[0] {
			case "ordered":
				if len(fields) < 2 {
					add(c.Pos(), directive{bad: "//lint:ordered requires a reason"})
					continue
				}
				add(c.Pos(), directive{analyzer: "mapiter", reason: strings.Join(fields[1:], " ")})
			case "allow":
				if len(fields) < 2 {
					add(c.Pos(), directive{bad: "//lint:allow requires an analyzer name and a reason"})
					continue
				}
				name := fields[1]
				if !valid[name] {
					add(c.Pos(), directive{bad: fmt.Sprintf("//lint:allow names unknown analyzer %q", name)})
					continue
				}
				if len(fields) < 3 {
					add(c.Pos(), directive{bad: fmt.Sprintf("//lint:allow %s requires a reason", name)})
					continue
				}
				add(c.Pos(), directive{analyzer: name, reason: strings.Join(fields[2:], " ")})
			default:
				add(c.Pos(), directive{bad: fmt.Sprintf("unknown //lint: directive %q", fields[0])})
			}
		}
	}
	return byLine
}

// codeLines returns the set of lines in file on which some non-comment
// token starts or ends — the lines a trailing comment would share with
// code. (ast.Walk does not descend into free-floating comments, so only
// doc comments need explicit skipping.)
func codeLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return true
		}
		if n.Pos().IsValid() {
			lines[fset.Position(n.Pos()).Line] = true
		}
		if n.End().IsValid() {
			lines[fset.Position(n.End()-1).Line] = true
		}
		return true
	})
	return lines
}

// Check runs the analyzers over one loaded package, applies the
// suppression directives, and returns the surviving findings in stable
// (file, line, column, analyzer) order. Malformed directives are
// returned as findings regardless of what they would have suppressed.
// refs is the module-wide index TestOnly reads; with nil it reports
// nothing.
func Check(pkg *Package, analyzers []*Analyzer, refs *Refs) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Refs:     refs,
		}
		pass.report = func(d Diagnostic) { raw = append(raw, d) }
		a.Run(pass)
	}

	directives := make(map[string][]directive)
	var out []Diagnostic
	seenBad := make(map[token.Pos]bool)
	for _, f := range pkg.Files {
		for key, ds := range parseDirectives(pkg.Fset, f) {
			directives[key] = append(directives[key], ds...)
			for _, d := range ds {
				if d.bad != "" && !seenBad[d.pos] {
					seenBad[d.pos] = true
					out = append(out, Diagnostic{Pos: d.pos, Analyzer: "lint", Message: d.bad})
				}
			}
		}
	}

	for _, d := range raw {
		p := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		suppressed := false
		for _, dir := range directives[key] {
			if dir.bad == "" && dir.analyzer == d.Analyzer {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}

	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// pkgPathElems splits an import path into elements.
func pkgPathElems(path string) []string { return strings.Split(path, "/") }

// lastElem returns the final element of an import path.
func lastElem(path string) string {
	elems := pkgPathElems(path)
	return elems[len(elems)-1]
}

// determinismCritical reports whether a package is one whose iteration
// order feeds observable output: the packages that produce reports, run
// the control plane, or merge parallel results. These are exactly the
// packages where the PR 1 / PR 3 map-iteration bugs lived.
// The cache is here too: its flush and eviction order feeds simulated
// time. So are mem and cxl: allocator addresses and stripe timing feed
// it as well.
var criticalPkgs = map[string]bool{
	"cache":       true,
	"mem":         true,
	"cxl":         true,
	"orch":        true,
	"cluster":     true,
	"experiments": true,
	"faults":      true,
	"churn":       true,
	"spine":       true,
	"report":      true,
	"metrics":     true,
	"runner":      true,
}

func determinismCritical(path string) bool {
	base := lastElem(path)
	// External test packages ("orch_test") share the directory's fate.
	base = strings.TrimSuffix(base, "_test")
	return criticalPkgs[base]
}

// insideInternal reports whether the import path has an "internal"
// element — the simulated world, where wall-clock time and global
// randomness are forbidden. cmd/, examples/, and the module root (the
// CLI shell and its integration tests) are outside it.
func insideInternal(path string) bool {
	for _, e := range pkgPathElems(path) {
		if e == "internal" {
			return true
		}
	}
	return false
}

// pkgPathTail reports whether the package path of obj's package ends in
// elem ("bufpool", "sim"). Matching on the tail keeps the analyzers
// honest in analysistest fixtures, where the fake contract packages live
// at a bare import path instead of under cxlpool/internal/.
func pkgPathTail(pkg *types.Package, elem string) bool {
	if pkg == nil {
		return false
	}
	return lastElem(pkg.Path()) == elem
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, and dynamic calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// builtinName returns the name of the builtin a call invokes ("append",
// "len", ...) or "" if the callee is not a builtin.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isConversion reports whether the call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// localVar resolves an expression to the local variable it names, or
// nil. Parenthesized idents count; fields, indexes, and globals do not.
func localVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	if v.IsField() || v.Parent() == nil || v.Parent().Parent() == types.Universe {
		return nil
	}
	return v
}
