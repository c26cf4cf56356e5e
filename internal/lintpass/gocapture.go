package lintpass

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoCapture enforces the disjoint-write decomposition contract inside
// functions annotated //subsim:parallel — the worker-partitioned fan-out
// points of the pipeline (Batcher.Fill, coverage.ensureIndexed, the
// SelectSeeds rounds). Their correctness argument (DESIGN.md, "Exact
// coverage engine") is that every goroutine writes only into ranges
// derived from its own worker index, so output is byte-identical for
// any worker count and no locks or atomics are needed. Nothing in the
// language enforces that: one write through a captured slice at a
// shared index compiles, races, and — because the ranges usually still
// overlap only rarely — survives `-race` runs probabilistically.
//
// Inside every `go func` literal spawned from an annotated function the
// analyzer flags:
//
//   - writes through a captured slice whose index expression is not
//     derived from a parameter of the goroutine (the worker identity
//     must flow into every index, or two workers can write the same
//     element);
//   - any write through a captured map (concurrent map writes are
//     undefined regardless of the key's provenance);
//   - reassignment of a captured slice/map variable itself (the header
//     write races with every other goroutine's use);
//   - sync.WaitGroup.Add inside the goroutine body (the classic
//     Add-after-Wait race; Add must happen on the spawning goroutine).
//
// Coordination the analyzer cannot see is waived with
// //lint:allow capture <reason>.
var GoCapture = &Analyzer{
	Name: "gocapture",
	Doc:  "flag non-range-disjoint writes to captured slices/maps and WaitGroup.Add inside go-routines of //subsim:parallel functions",
	Run:  runGoCapture,
}

func runGoCapture(pass *Pass) {
	pass.Directives.markChecked(ClassCapture)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.Directives.IsParallel(fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineBody(pass, fn, lit)
				}
				return true
			})
		}
	}
}

// checkGoroutineBody applies the disjoint-write checks to one spawned
// func literal.
func checkGoroutineBody(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) {
	derived := derivedLocals(pass, lit)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == lit // nested literals have their own spawn discipline
		case *ast.CallExpr:
			checkWaitGroupAdd(pass, fn, n)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // := only creates goroutine-locals
			}
			for _, lhs := range n.Lhs {
				checkWriteTarget(pass, fn, lit, derived, ast.Unparen(lhs))
			}
		case *ast.IncDecStmt:
			checkWriteTarget(pass, fn, lit, derived, ast.Unparen(n.X))
		}
		return true
	})
}

// checkWriteTarget classifies one assignment target inside the
// goroutine body.
func checkWriteTarget(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit, derived map[*types.Var]bool, lhs ast.Expr) {
	switch lhs := lhs.(type) {
	case *ast.IndexExpr:
		base := ast.Unparen(lhs.X)
		if !capturedExpr(pass, lit, base) {
			return
		}
		tv, ok := pass.Info.Types[base]
		if !ok || tv.Type == nil {
			return
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			pass.Report(lhs.Pos(), ClassCapture,
				"write to captured map %s inside a goroutine of parallel function %s; concurrent map writes are undefined — partition into per-worker maps or move the write after the join",
				types.ExprString(base), fn.Name.Name)
		case *types.Slice, *types.Array, *types.Pointer:
			if !indexDerived(pass, derived, lhs.Index) {
				pass.Report(lhs.Pos(), ClassCapture,
					"write to captured slice %s at index %q not derived from a goroutine parameter; the disjoint-write contract of parallel function %s needs the worker identity in every index",
					types.ExprString(base), types.ExprString(lhs.Index), fn.Name.Name)
			}
		}
	case *ast.Ident, *ast.SelectorExpr:
		if !capturedExpr(pass, lit, lhs) {
			return
		}
		tv, ok := pass.Info.Types[lhs]
		if !ok || tv.Type == nil {
			return
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Map:
			pass.Report(lhs.Pos(), ClassCapture,
				"reassignment of captured %s %s inside a goroutine of parallel function %s races with every other worker's use of it",
				typeKindWord(tv.Type), types.ExprString(lhs), fn.Name.Name)
		}
	}
}

func typeKindWord(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

// checkWaitGroupAdd flags sync.WaitGroup.Add calls inside the goroutine
// body.
func checkWaitGroupAdd(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" {
		return
	}
	obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.Obj().Name() != "WaitGroup" {
		return
	}
	pass.Report(call.Pos(), ClassCapture,
		"sync.WaitGroup.Add inside a goroutine of parallel function %s can race with the spawner's Wait; call Add before the go statement", fn.Name.Name)
}

// capturedExpr reports whether the root variable of expr (the base of a
// selector/index chain) is declared outside the literal — a captured
// local of the enclosing function, a receiver/parameter, or a
// package-level variable. Such a root is shared with other goroutines.
func capturedExpr(pass *Pass, lit *ast.FuncLit, expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			v, ok := pass.Info.Uses[e].(*types.Var)
			if !ok {
				return false
			}
			pos := v.Pos()
			return pos < lit.Pos() || pos >= lit.End()
		default:
			return false
		}
	}
}

// indexDerived reports whether the index expression mentions at least
// one variable derived from the goroutine's parameters (directly, or
// through locals assigned from derived-only expressions). A
// constant-only or captured-only index means every worker computes the
// same element.
func indexDerived(pass *Pass, derived map[*types.Var]bool, index ast.Expr) bool {
	found := false
	ast.Inspect(index, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.Info.Uses[id].(*types.Var); ok && derived[v] {
			found = true
			return false
		}
		return true
	})
	return found
}

// derivedLocals computes the parameter-derived variable set of the
// literal: its parameters, plus (to a fixed point) every local whose
// defining expression mentions a derived variable. Range/for loop
// variables driven by derived bounds count too.
func derivedLocals(pass *Pass, lit *ast.FuncLit) map[*types.Var]bool {
	derived := map[*types.Var]bool{}
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.Info.Defs[name].(*types.Var); ok {
					derived[v] = true
				}
			}
		}
	}
	mentionsDerived := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		return indexDerived(pass, derived, e)
	}
	for changed := true; changed; {
		changed = false
		mark := func(name *ast.Ident, from ast.Expr) {
			v, ok := pass.Info.Defs[name].(*types.Var)
			if !ok || derived[v] {
				return
			}
			if mentionsDerived(from) {
				derived[v] = true
				changed = true
			}
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					return true
				}
				for i, lhs := range n.Lhs {
					name, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if len(n.Rhs) == len(n.Lhs) {
						mark(name, n.Rhs[i])
					} else if len(n.Rhs) == 1 {
						mark(name, n.Rhs[0])
					}
				}
			case *ast.RangeStmt:
				if n.Tok != token.DEFINE {
					return true
				}
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if name, ok := e.(*ast.Ident); ok && name != nil {
						mark(name, n.X)
					}
				}
			}
			return true
		})
	}
	return derived
}
