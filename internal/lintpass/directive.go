package lintpass

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// The directive grammar. Two namespaces exist:
//
//	//lint:allow <class> [reason...]   — suppress one diagnostic class on
//	                                     this line or the next one
//	//subsim:hotpath                   — mark the documented function as a
//	                                     hot path for the hotpath-alloc
//	                                     analyzer
//
// Directives are themselves linted (see the Directives analyzer): an
// unknown verb, an unknown class, or a suppression that suppresses
// nothing is an error, so the annotation layer cannot rot.
const (
	// ClassTiming suppresses nodeterminism findings for wall-clock reads
	// that only feed span/metric timing, never algorithm output.
	ClassTiming = "timing"
	// ClassMapRange suppresses nodeterminism findings for map iteration
	// whose order provably does not reach algorithm output.
	ClassMapRange = "maprange"
	// ClassFloatEq suppresses floateq findings for intentional exact
	// floating-point comparisons (sentinel values, clamped endpoints).
	ClassFloatEq = "floateq"
	// ClassErrCheck suppresses errcheck findings for calls whose error is
	// intentionally discarded.
	ClassErrCheck = "errcheck"
	// ClassAlloc suppresses hotpath-alloc findings for accepted
	// allocations inside //subsim:hotpath functions.
	ClassAlloc = "alloc"
	// ClassAtomic suppresses atomicmix findings for accepted plain
	// accesses to atomic-typed fields (single-goroutine setup or
	// teardown phases that the type system cannot see).
	ClassAtomic = "atomic"
	// ClassCapture suppresses gocapture findings for goroutine-body
	// writes that are disjoint for reasons the index analysis cannot
	// prove (e.g. observability-only buffers with external coordination).
	ClassCapture = "capture"
)

// KnownClasses returns the suppression classes and the analyzers that
// own them, for CLI help output.
func KnownClasses() map[string]string {
	out := make(map[string]string, len(knownClasses))
	for c, a := range knownClasses {
		out[c] = a
	}
	return out
}

// knownClasses maps each suppression class to the analyzer that owns it,
// for the -list output and the stale-suppression check.
var knownClasses = map[string]string{
	ClassTiming:   "nodeterminism",
	ClassMapRange: "nodeterminism",
	ClassFloatEq:  "floateq",
	ClassErrCheck: "errcheck",
	ClassAlloc:    "hotpath-alloc",
	ClassAtomic:   "atomicmix",
	ClassCapture:  "gocapture",
}

// directive is one parsed //lint: or //subsim: comment.
type directive struct {
	pos   token.Pos
	file  string
	line  int
	cover int    // last line an allow directive suppresses (>= line)
	space string // "lint" or "subsim"
	verb  string // "allow", "hotpath", ...
	class string // suppression class for lint:allow
	used  bool   // consumed by a suppression or attached to a func
}

// DirectiveSet holds every directive of one package plus the bookkeeping
// the stale-suppression check needs: which classes the analyzers
// actually evaluated for this package, and which directives fired.
// suppress and markChecked are safe for concurrent use (the parallel
// driver runs several analyzers of one package at once); the remaining
// state is written at construction and read by the hygiene analyzer
// after every other analyzer has joined.
type DirectiveSet struct {
	all      []*directive
	allows   map[string][]*directive // file -> allow directives, any line
	hotpath  map[*ast.FuncDecl]*directive
	parallel map[*ast.FuncDecl]*directive
	checked  map[string]bool // classes evaluated for this package

	mu sync.Mutex // guards directive.used and checked during analysis
}

// newDirectiveSet parses the directives of the package files, attaches
// //subsim:hotpath and //subsim:parallel markers to their documented
// functions, and computes each allow directive's coverage extent.
func newDirectiveSet(fset *token.FileSet, files []*ast.File) *DirectiveSet {
	ds := &DirectiveSet{
		allows:   map[string][]*directive{},
		hotpath:  map[*ast.FuncDecl]*directive{},
		parallel: map[*ast.FuncDecl]*directive{},
		checked:  map[string]bool{},
	}
	byComment := map[*ast.Comment]*directive{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok { // /* ... */ comments never carry directives
					continue
				}
				var space string
				switch {
				case strings.HasPrefix(text, "lint:"):
					space = "lint"
				case strings.HasPrefix(text, "subsim:"):
					space = "subsim"
				default:
					continue
				}
				rest := strings.TrimPrefix(text, space+":")
				fields := strings.Fields(rest)
				d := &directive{pos: c.Pos(), space: space}
				if len(fields) > 0 {
					d.verb = fields[0]
				}
				if len(fields) > 1 {
					d.class = fields[1]
				}
				pos := fset.Position(c.Pos())
				d.file, d.line = pos.Filename, pos.Line
				ds.all = append(ds.all, d)
				byComment[c] = d
				if d.space == "lint" && d.verb == "allow" {
					ds.allows[d.file] = append(ds.allows[d.file], d)
				}
			}
		}
		// Attach hotpath/parallel markers to the functions they document.
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				d := byComment[c]
				if d == nil || d.space != "subsim" {
					continue
				}
				switch d.verb {
				case "hotpath":
					d.used = true
					ds.hotpath[fn] = d
				case "parallel":
					d.used = true
					ds.parallel[fn] = d
				}
			}
		}
		coverExtents(fset, f, ds.allows)
	}
	sort.Slice(ds.all, func(i, j int) bool {
		if ds.all[i].file != ds.all[j].file {
			return ds.all[i].file < ds.all[j].file
		}
		return ds.all[i].line < ds.all[j].line
	})
	return ds
}

// coverExtents widens each allow directive's suppression window from
// "this line or the next" to the full line extent of the statement it
// annotates. Waivers are written against a logical statement, but gofmt
// re-wraps long lines freely, so a diagnostic anchored on a continuation
// line (an argument three lines into a wrapped call) must still match
// the directive sitting on or above the statement's first line —
// otherwise every re-format turns live waivers into spurious
// stale-suppression errors. The extent is the smallest simple statement
// (assignment, expression, return, go/defer, send, inc/dec, or var
// declaration — never a block-carrying statement, whose body would
// over-suppress) starting on the directive's own line (trailing comment)
// or the line below it (leading comment).
func coverExtents(fset *token.FileSet, f *ast.File, allows map[string][]*directive) {
	// endByStart maps a statement's first line to the last line of the
	// widest simple statement starting there (post-gofmt at most one
	// statement starts per line, so "widest" only matters for
	// hand-written one-liners).
	endByStart := map[int]int{}
	note := func(n ast.Node) {
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if end > endByStart[start] {
			endByStart[start] = end
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.GoStmt,
			*ast.DeferStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.DeclStmt,
			*ast.ValueSpec, *ast.Field:
			note(n)
		}
		return true
	})
	for _, ds := range allows {
		for _, d := range ds {
			d.cover = d.line + 1
			if end := endByStart[d.line]; end > d.cover {
				d.cover = end
			}
			if end := endByStart[d.line+1]; end > d.cover {
				d.cover = end
			}
		}
	}
}

// markChecked records that the analyzer owning class evaluated this
// package, making unused `allow class` directives stale errors.
func (ds *DirectiveSet) markChecked(class string) {
	ds.mu.Lock()
	ds.checked[class] = true
	ds.mu.Unlock()
}

// suppress reports whether an allow directive for class covers the given
// position — same line, the immediately following line, or any
// continuation line of the annotated statement (see coverExtents) —
// marking the directive used. Matching is by line only, never column:
// re-indenting or re-wrapping an annotated statement cannot stale a
// waiver.
func (ds *DirectiveSet) suppress(class string, pos token.Position) bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for _, d := range ds.allows[pos.Filename] {
		if d.class != class {
			continue
		}
		if pos.Line >= d.line && pos.Line <= d.cover {
			d.used = true
			return true
		}
	}
	return false
}

// IsHotPath reports whether fn carries a //subsim:hotpath marker.
func (ds *DirectiveSet) IsHotPath(fn *ast.FuncDecl) bool {
	_, ok := ds.hotpath[fn]
	return ok
}

// IsParallel reports whether fn carries a //subsim:parallel marker (the
// function fans work out over goroutines under the disjoint-write
// contract; see the gocapture analyzer).
func (ds *DirectiveSet) IsParallel(fn *ast.FuncDecl) bool {
	_, ok := ds.parallel[fn]
	return ok
}

// Directives is the hygiene analyzer: unknown or malformed //lint: and
// //subsim: directives are errors, as are suppressions that no longer
// suppress anything. It must run after the other analyzers (Run
// guarantees the ordering).
var Directives = &Analyzer{
	Name: "directives",
	Doc:  "flag unknown, malformed, misplaced, and stale //lint:/ //subsim: directives",
	Run:  runDirectives,
}

func runDirectives(pass *Pass) {
	for _, d := range pass.Directives.all {
		switch {
		case d.space == "lint" && d.verb == "allow":
			if d.class == "" {
				pass.Reportf(d.pos, "//lint:allow needs a suppression class (%s)", classList())
				continue
			}
			owner, known := knownClasses[d.class]
			if !known {
				pass.Reportf(d.pos, "unknown suppression class %q in //lint:allow (%s)", d.class, classList())
				continue
			}
			if !d.used && pass.Directives.checked[d.class] {
				pass.Reportf(d.pos, "stale suppression: no %s diagnostic of class %q within the annotated statement", owner, d.class)
			}
		case d.space == "lint":
			pass.Reportf(d.pos, "unknown directive //lint:%s (only //lint:allow is defined)", d.verb)
		case d.space == "subsim" && (d.verb == "hotpath" || d.verb == "parallel"):
			if !d.used {
				pass.Reportf(d.pos, "//subsim:%s must appear in the doc comment of a function declaration", d.verb)
			}
		case d.space == "subsim":
			pass.Reportf(d.pos, "unknown directive //subsim:%s (known: hotpath, parallel)", d.verb)
		}
	}
}

func classList() string {
	names := make([]string, 0, len(knownClasses))
	for c := range knownClasses {
		names = append(names, c)
	}
	sort.Strings(names)
	return "known: " + strings.Join(names, ", ")
}
