package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// TestOnly reports every exported identifier declared in a non-test
// file under internal/ that no non-test code references: API that only
// tests reach is surface nothing runs. The check is module-wide, so it
// reads the Refs index the driver builds over every loaded unit and
// caller root; on a Pass without one it reports nothing.
//
// A use is a reference from a non-test file, matched by package path,
// receiver and name (each loaded unit type-checks its imports
// separately, so objects from two units are never pointer-equal). A
// method also counts as used when its type satisfies an interface or
// type-parameter constraint that non-test code names. Struct fields,
// interface methods, and String, Error and Unwrap methods (reached
// through fmt and errors) are not checked.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "reports exported internal/ identifiers that no non-test code references",
	Run:  runTestOnly,
}

// exemptMethods are reached by name through the standard library.
var exemptMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true}

func runTestOnly(pass *Pass) {
	if pass.Refs == nil || !insideInternal(pass.Pkg.Path()) {
		return
	}
	check := func(id *ast.Ident) {
		if !id.IsExported() {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && exemptMethods[fn.Name()] {
			return
		}
		key := objKey(obj)
		if pass.Refs.used[key] {
			return
		}
		if files := pass.Refs.tested[key]; len(files) > 0 {
			pass.Reportf(id.Pos(), "exported %s is referenced only by tests (%s)", displayName(obj), strings.Join(files, ", "))
			return
		}
		pass.Reportf(id.Pos(), "exported %s is referenced by nothing", displayName(obj))
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				check(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							check(n)
						}
					}
				}
			}
		}
	}
}

// Refs is the module-wide reference index behind TestOnly: the keys of
// the objects non-test files reference, and for the objects test files
// reference, the names of those files.
type Refs struct {
	used   map[string]bool
	tested map[string][]string
}

// NewRefs indexes the references in units: the module's packages and
// any caller roots (a nested module such as bench/) whose non-test
// files count as uses.
func NewRefs(units []*Package) *Refs {
	r := &Refs{used: make(map[string]bool), tested: make(map[string][]string)}
	ifaces := make(map[string]bool) // interfaces non-test code names
	var literal [][]*types.Interface
	for _, u := range units {
		var lits []*types.Interface
		for _, f := range u.Files {
			test := ""
			if isTestFile(u.Fset, f) {
				test = filepath.Base(u.Fset.Position(f.Package).Filename)
			}
			for _, decl := range f.Decls {
				r.indexDecl(u.Info, decl, test, ifaces, &lits)
			}
		}
		literal = append(literal, lits)
	}
	// A method reached only through an interface has no call site that
	// names it: mark the methods of every module type that satisfies an
	// interface or constraint non-test code uses. Each unit sees its own
	// universe of types, so the pairs are tried per unit and remembered
	// by key.
	tried := make(map[[2]string]bool)
	pkgScan := make(map[*types.Package]*scannedPkg)
	for i, u := range units {
		var cands []*types.Named
		used := literal[i]
		for _, p := range reachable(u.Types) {
			s := pkgScan[p]
			if s == nil {
				s = scanPkg(p)
				pkgScan[p] = s
			}
			cands = append(cands, s.cands...)
			for _, n := range s.ifaces {
				if ifaces[types.TypeString(n, nil)] {
					used = append(used, n.Underlying().(*types.Interface))
				}
			}
		}
		for _, iface := range used {
			ik := types.TypeString(iface, nil)
			for _, t := range cands {
				pair := [2]string{ik, types.TypeString(t, nil)}
				if tried[pair] {
					continue
				}
				tried[pair] = true
				r.markSatisfied(t, iface)
			}
		}
	}
	return r
}

// indexDecl records the references inside one top-level declaration of
// a non-test file, or of the test file named test. A declaration's
// references to itself (recursion) do not count.
func (r *Refs) indexDecl(info *types.Info, decl ast.Decl, test string, ifaces map[string]bool, lits *[]*types.Interface) {
	var declared ast.Expr
	walk := func(n ast.Node, self map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || self[obj] || !tracked(obj) {
					return true
				}
				if fn, ok := obj.(*types.Func); ok && self[fn.Origin()] {
					return true
				}
				if test != "" {
					key := objKey(obj)
					if files := r.tested[key]; !slices.Contains(files, test) {
						r.tested[key] = append(files, test)
					}
					return true
				}
				r.used[objKey(obj)] = true
				if tn, ok := obj.(*types.TypeName); ok && isMethodInterface(tn.Type()) {
					ifaces[types.TypeString(tn.Type(), nil)] = true
				}
			case *ast.InterfaceType:
				// A named interface's own literal is its declaration,
				// not a use; only what names it marks it used.
				if test == "" && n != declared {
					if tv, ok := info.Types[n]; ok && isMethodInterface(tv.Type) {
						*lits = append(*lits, tv.Type.Underlying().(*types.Interface))
					}
				}
			}
			return true
		})
	}
	self := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self[info.Defs[d.Name]] = true
		walk(d, self)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			clear(self)
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
				declared = s.Type
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[info.Defs[n]] = true
				}
			}
			walk(spec, self)
		}
	}
}

// markSatisfied marks t's methods that implement iface, when t or *t
// satisfies it. Promoted methods are marked on the type declaring them.
func (r *Refs) markSatisfied(t *types.Named, iface *types.Interface) {
	ptr := types.NewPointer(t)
	if iface.IsMethodSet() {
		if !types.Implements(ptr, iface) {
			return
		}
	} else if !types.Satisfies(ptr, iface) && !types.Satisfies(t, iface) {
		return
	}
	ms := types.NewMethodSet(ptr)
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
			r.used[objKey(sel.Obj())] = true
		}
	}
}

// scannedPkg is a package's named interfaces and its candidate
// implementers: the non-generic, non-interface named types of a package
// under internal/.
type scannedPkg struct {
	ifaces []*types.Named
	cands  []*types.Named
}

func scanPkg(p *types.Package) *scannedPkg {
	s := &scannedPkg{}
	internal := insideInternal(p.Path())
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		switch {
		case isMethodInterface(n):
			s.ifaces = append(s.ifaces, n)
		case internal && n.TypeParams().Len() == 0 && !types.IsInterface(n):
			s.cands = append(s.cands, n)
		}
	}
	return s
}

// reachable returns p and every package it imports, transitively.
func reachable(p *types.Package) []*types.Package {
	seen := map[*types.Package]bool{p: true}
	out := []*types.Package{p}
	for i := 0; i < len(out); i++ {
		for _, imp := range out[i].Imports() {
			if !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
			}
		}
	}
	return out
}

// tracked reports whether obj is one TestOnly can report: a
// package-level object or a method, not a local or a field.
func tracked(obj types.Object) bool {
	if obj.Pkg() == nil {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return true
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// isMethodInterface reports whether t is an interface with methods.
func isMethodInterface(t types.Type) bool {
	it, ok := t.Underlying().(*types.Interface)
	return ok && it.NumMethods() > 0
}

// objKey names obj independently of the unit that type-checked it:
// package path, receiver type (for methods) and name.
func objKey(obj types.Object) string {
	path := ""
	if obj.Pkg() != nil {
		path = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return path + "." + recvName(recv.Type()) + "." + fn.Name()
		}
	}
	return path + "." + obj.Name()
}

// recvName is the name of a receiver's named type, pointer stripped.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Name()
	}
	return types.TypeString(t, nil)
}

// displayName is obj as a finding names it: Name or Recv.Name.
func displayName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return recvName(recv.Type()) + "." + fn.Name()
		}
	}
	return obj.Name()
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}
