package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimHandle enforces the sim event handle-validity contract along
// straight-line paths: after Engine.Cancel(h), a canceled handle's only
// documented affordance is Canceled() — it must never be re-canceled,
// rescheduled, passed on, stored, or returned. (A canceled handle stays
// valid forever by contract, but every *use* of one beyond that query
// signals the single-owner pattern has been broken: some party still
// believes the event is pending.)
//
// The check is deliberately lexical — the straight-line statement
// sequence after the Cancel, including statements nested under later
// branches — and resets when the handle is reassigned (h = eng.At(...)
// schedules a fresh event; h = nil clears the reference, which is the
// idiomatic post-Cancel hygiene this repository follows).
var SimHandle = &Analyzer{
	Name: "simhandle",
	Doc:  "flags use of a sim event handle after Cancel along straight-line paths",
	Run:  runSimHandle,
}

func runSimHandle(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			checkHandleList(pass, list)
			return true
		})
	}
}

// isEventHandle reports whether t is *sim.Event (matched by type name
// and package path tail so fixtures can model the contract package).
func isEventHandle(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Event" && obj.Pkg() != nil && pkgPathTail(obj.Pkg(), "sim")
}

// cancelArg returns the handle variable canceled by stmt, if stmt is a
// statement-level Engine.Cancel(h) on a local *sim.Event variable.
func cancelArg(pass *Pass, stmt ast.Stmt) *types.Var {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Name() != "Cancel" || !pkgPathTail(fn.Pkg(), "sim") {
		return nil
	}
	v := localVar(pass.Info, call.Args[0])
	if v == nil || !isEventHandle(v.Type()) {
		return nil
	}
	return v
}

// checkHandleList scans one statement list: once a handle is canceled,
// later statements in the same list may only query it (Canceled),
// nil-compare it, or reassign it.
func checkHandleList(pass *Pass, list []ast.Stmt) {
	canceled := make(map[*types.Var]token.Pos)
	for _, stmt := range list {
		if v := cancelArg(pass, stmt); v != nil {
			if putPos, ok := canceled[v]; ok {
				pass.Reportf(stmt.Pos(), "handle %s already canceled at line %d (double Cancel: the handle may now name a recycled, unrelated event)",
					v.Name(), pass.Fset.Position(putPos).Line)
			} else {
				canceled[v] = stmt.Pos()
			}
			continue
		}
		if len(canceled) == 0 {
			continue
		}
		// Reassignment anywhere in the statement revives or clears the
		// handle before its uses are judged: h = eng.At(...) is a
		// fresh event, h = nil is post-Cancel hygiene.
		for v := range canceled {
			if reassignsVar(pass, stmt, v) {
				delete(canceled, v)
			}
		}
		reportCanceledUses(pass, stmt, canceled)
	}
}

// reassignsVar reports whether any assignment in stmt's subtree writes v.
func reassignsVar(pass *Pass, stmt ast.Stmt, v *types.Var) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if localVar(pass.Info, lhs) == v {
				found = true
			}
		}
		return true
	})
	return found
}

// reportCanceledUses flags every disallowed occurrence of a canceled
// handle in stmt's subtree.
func reportCanceledUses(pass *Pass, stmt ast.Stmt, canceled map[*types.Var]token.Pos) {
	allowed := make(map[*ast.Ident]bool)
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.SelectorExpr:
			// h.Canceled() is the documented query.
			if t.Sel.Name == "Canceled" {
				if id, ok := ast.Unparen(t.X).(*ast.Ident); ok {
					allowed[id] = true
				}
			}
		case *ast.BinaryExpr:
			// Comparing a handle against nil retains nothing.
			if isNilExpr(t.X) || isNilExpr(t.Y) {
				if id, ok := ast.Unparen(t.X).(*ast.Ident); ok {
					allowed[id] = true
				}
				if id, ok := ast.Unparen(t.Y).(*ast.Ident); ok {
					allowed[id] = true
				}
			}
		}
		return true
	})
	ast.Inspect(stmt, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || allowed[id] {
			return true
		}
		v := localVar(pass.Info, id)
		if v == nil {
			return true
		}
		if pos, isCanceled := canceled[v]; isCanceled {
			pass.Reportf(id.Pos(), "use of handle %s after Cancel at line %d: only Canceled is valid on a canceled handle",
				v.Name(), pass.Fset.Position(pos).Line)
		}
		return true
	})
}
