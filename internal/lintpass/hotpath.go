package lintpass

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc enforces the allocation-free contract of functions marked
// //subsim:hotpath (the arena generate→store→index pipeline, the CELF
// heap, the samplers — everything the 0 allocs/set regression tests in
// internal/im certify). Inside a marked function it flags the four
// allocation patterns that historically crept into these loops:
//
//   - implicit conversion of a non-constant concrete value to an
//     interface parameter (boxing allocates; this is how container/heap
//     cost tens of thousands of allocations before the hand-rolled CELF
//     heap);
//   - function literals that capture enclosing variables (each capture
//     forces a closure allocation, and often moves the captured variable
//     to the heap);
//   - append to a slice-typed local declared without capacity (grows by
//     reallocation in the hot loop; preallocate or reuse scratch);
//   - any call into the fmt package (interface boxing plus formatting
//     state).
//
// Appends to parameters, struct fields, and make()-with-capacity locals
// are allowed: those are the arena/scratch reuse patterns the pipeline
// is built on. Accepted one-off allocations can be waved through with
// //lint:allow alloc.
var HotPathAlloc = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "flag interface boxing, capturing closures, unsized appends, and fmt calls in //subsim:hotpath functions",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	pass.Directives.markChecked(ClassAlloc)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.Directives.IsHotPath(fn) {
				continue
			}
			checkHotPathFunc(pass, fn)
		}
	}
}

func checkHotPathFunc(pass *Pass, fn *ast.FuncDecl) {
	unsized := unsizedLocalSlices(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotPathCall(pass, fn, n, unsized)
		case *ast.FuncLit:
			if capt := capturedVar(pass, fn, n); capt != nil {
				pass.Report(n.Pos(), ClassAlloc,
					"closure capturing %q in hot-path function %s allocates; hoist the closure or pass state explicitly", capt.Name(), fn.Name.Name)
			}
			return false // the literal runs on its own stack discipline
		}
		return true
	})
}

func checkHotPathCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, unsized map[*types.Var]bool) {
	// append(s, ...) on an unsized local.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && obj.Name() == "append" && len(call.Args) > 0 {
			if target, ok := call.Args[0].(*ast.Ident); ok {
				if v, isVar := pass.Info.Uses[target].(*types.Var); isVar && unsized[v] {
					pass.Report(call.Pos(), ClassAlloc,
						"append to unsized local slice %q in hot-path function %s; preallocate with make(_, 0, n) or reuse scratch", target.Name, fn.Name.Name)
				}
			}
			return
		}
	}

	// fmt calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Report(call.Pos(), ClassAlloc,
				"fmt.%s in hot-path function %s boxes its operands and allocates; format outside the hot loop", sel.Sel.Name, fn.Name.Name)
			return
		}
	}

	// Implicit interface conversions at call boundaries (boxing).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion T(x), not a call
	}
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if slice, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				paramType = slice.Elem()
			}
		case i < params.Len():
			paramType = params.At(i).Type()
		}
		if paramType == nil || !types.IsInterface(paramType) {
			continue
		}
		atv, ok := pass.Info.Types[arg]
		if !ok || atv.Value != nil { // constants are boxed at compile time
			continue
		}
		if atv.IsNil() || atv.Type == nil || types.IsInterface(atv.Type) {
			continue
		}
		pass.Report(arg.Pos(), ClassAlloc,
			"passing %s as interface %s in hot-path function %s boxes the value (allocates); use a concrete type or hoist out of the hot path",
			atv.Type.String(), paramType.String(), fn.Name.Name)
	}
}

// callSignature resolves the signature of a (non-builtin) call.
func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// unsizedLocalSlices collects the slice-typed locals of fn that are
// declared without any capacity information: `var s []T`, `s := []T{}`,
// or `s := []T(nil)`. Locals initialised by make (any arity — a length
// is capacity too), by composite literals with elements, or by calls are
// not reported; neither are parameters, named results, or fields.
func unsizedLocalSlices(pass *Pass, fn *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(name *ast.Ident, init ast.Expr) {
		if name.Name == "_" {
			return
		}
		v, ok := pass.Info.Defs[name].(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if sliceInitUnsized(pass, init) {
			out[v] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate function body, separate discipline
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						var init ast.Expr
						if i < len(vs.Values) {
							init = vs.Values[i]
						}
						mark(name, init)
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" {
				return true
			}
			for i, lhs := range n.Lhs {
				name, ok := lhs.(*ast.Ident)
				if !ok || pass.Info.Defs[name] == nil {
					continue
				}
				var init ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					init = n.Rhs[i]
				}
				mark(name, init)
			}
		}
		return true
	})
	return out
}

// sliceInitUnsized reports whether the initialiser carries no capacity:
// nil (plain var declaration), an empty composite literal, or an
// explicit nil conversion.
func sliceInitUnsized(pass *Pass, init ast.Expr) bool {
	switch e := init.(type) {
	case nil:
		return true
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			if atv, ok := pass.Info.Types[e.Args[0]]; ok && atv.IsNil() {
				return true
			}
		}
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}

// capturedVar returns a variable that lit captures from the enclosing
// function fn (nil when the literal is capture-free). A capture is a use
// of a *types.Var whose declaration lies inside fn but outside lit.
func capturedVar(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) *types.Var {
	var found *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos == 0 {
			return true
		}
		// Declared within the enclosing function (including receiver and
		// parameters) but outside the literal itself?
		if pos >= fn.Pos() && pos < fn.End() && !(pos >= lit.Pos() && pos < lit.End()) {
			found = v
			return false
		}
		return true
	})
	return found
}
