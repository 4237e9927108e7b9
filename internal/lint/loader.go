// Package loading for the analyzer suite. The hermetic build environment
// has no golang.org/x/tools, so instead of go/packages the loader drives
// go/parser + go/types directly, resolving imports through the standard
// library's source importer (which type-checks dependencies — including
// this module's own packages — from source, offline).
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
)

// Package is one loaded, type-checked unit of analysis: a package's
// compiled files plus (for the driver) its in-package test files.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader type-checks packages against a shared FileSet and importer so
// dependency work (the stdlib, this module's own packages) is paid once
// per process, not once per analyzed package.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader that resolves imports from source: module
// packages through the go tool's view of the build, stdlib from GOROOT.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// LoadFiles parses and type-checks one package from an explicit file
// list (as produced by `go list`: GoFiles plus TestGoFiles for the
// in-package unit, XTestGoFiles for the external test unit).
func (l *Loader) LoadFiles(path string, filenames []string) (*Package, error) {
	if len(filenames) == 0 {
		return nil, fmt.Errorf("lint: package %s has no files", path)
	}
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}
