package lintpass

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicMix enforces the copy-on-write field discipline the obs layer
// is built on: a field shared across goroutines is declared with a
// sync/atomic type, and its methods are its only access. One plain read
// of an atomic counter, or one plain store next to an atomic.Pointer
// publish, compiles fine and usually survives `-race` (the torture
// tests only catch the interleaving probabilistically) but silently
// voids the memory-ordering contract documented in DESIGN.md.
//
// Two rules:
//
//   - no sync/atomic functions: every call to one (atomic.LoadInt64,
//     atomic.AddUint64(&s.f, 1), …) is an error. A field whose address
//     feeds such a call is a plain field everywhere else, so nothing
//     stops the next plain access to it; declared with an atomic type,
//     the compiler does.
//   - typed atomics stay behind their methods: for a field declared
//     with a sync/atomic type (atomic.Int64, atomic.Uint64,
//     atomic.Pointer[T], …), assigning over the field (s.seq =
//     atomic.Uint64{} resets the generation counter out from under
//     readers) or copying its value out is an error.
//
// Constructors are exempt from the second rule: before the value is
// published there are no concurrent readers, so New*/new* functions
// (and package init) may initialise typed fields plainly. Deliberate
// single-goroutine phases the analyzer cannot see are waived with
// //lint:allow atomic <reason>.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "ban sync/atomic functions and flag plain reads/writes of sync/atomic-typed struct fields",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	pass.Directives.markChecked(ClassAtomic)

	// Parent links are needed to tell a method-call receiver from a
	// value copy and an assignment target from a read.
	for _, f := range pass.Files {
		parents := parentMap(f)
		ctor := constructorRanges(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := syncAtomicFunc(pass, n); ok {
					pass.Report(n.Pos(), ClassAtomic,
						"call to sync/atomic function %s; declare the field with a sync/atomic type and use its methods", name)
				}
			case *ast.SelectorExpr:
				v := selectedField(pass, n)
				if v != nil && isSyncAtomicType(v.Type()) && !inRanges(ctor, n.Pos()) {
					checkTypeStyleAccess(pass, n, v, parents)
				}
			}
			return true
		})
	}
}

// checkTypeStyleAccess flags assigning over or copying out a field of a
// sync/atomic type; taking its address and calling its methods are the
// legal accesses.
func checkTypeStyleAccess(pass *Pass, sel *ast.SelectorExpr, v *types.Var, parents map[ast.Node]ast.Node) {
	name := v.Name()
	switch p := parents[sel].(type) {
	case *ast.SelectorExpr:
		if p.X == sel {
			return // method call or nested field: s.endNS.Load()
		}
	case *ast.IndexExpr:
		if p.X == sel {
			return // element of an atomic array field: h.buckets[b].Add(1)
		}
	case *ast.UnaryExpr:
		if p.Op.String() == "&" {
			return // &s.endNS handed to code that uses the methods
		}
	case *ast.CallExpr:
		if id, ok := p.Fun.(*ast.Ident); ok {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				return // len(h.buckets) and friends read no atomic state
			}
		}
	case *ast.RangeStmt:
		if p.X == sel {
			if p.Value == nil {
				return // index-only range copies nothing
			}
			pass.Report(sel.Pos(), ClassAtomic,
				"ranging over atomic field %q by value copies each element outside its atomic API; range by index instead", name)
			return
		}
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == sel {
				pass.Report(sel.Pos(), ClassAtomic,
					"assignment over atomic-typed field %q resets it out from under concurrent readers; use its Store method", name)
				return
			}
		}
	}
	pass.Report(sel.Pos(), ClassAtomic,
		"plain read of atomic-typed field %q copies the value without a Load (and trips the noCopy check); use %s.Load()",
		name, name)
}

// selectedField resolves sel to the struct field it reads, or nil.
func selectedField(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// syncAtomicFunc reports whether call invokes a package-level function
// of sync/atomic (atomic.LoadInt64, atomic.StorePointer, …) and returns
// its name. Methods of the sync/atomic types are not functions here.
func syncAtomicFunc(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	return fn.Name(), true
}

// isSyncAtomicType reports whether t (or the element behind one level of
// array) is a named sync/atomic type: atomic.Bool, atomic.Int64,
// atomic.Pointer[T], atomic.Value, ….
func isSyncAtomicType(t types.Type) bool {
	if arr, ok := t.Underlying().(*types.Array); ok {
		t = arr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// constructorRanges returns the source extents of the file's
// constructor-like functions: New*/new* and package init, where plain
// initialisation of atomic-typed fields is legal because the value is
// not yet published.
func constructorRanges(f *ast.File) [][2]int {
	var out [][2]int
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fn.Name.Name
		if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || (name == "init" && fn.Recv == nil) {
			out = append(out, [2]int{int(fn.Pos()), int(fn.End())})
		}
	}
	return out
}

func inRanges(ranges [][2]int, pos token.Pos) bool {
	p := int(pos)
	for _, r := range ranges {
		if p >= r[0] && p < r[1] {
			return true
		}
	}
	return false
}

// parentMap links every node in f to its syntactic parent.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
