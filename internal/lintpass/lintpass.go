// Package lintpass is the repository's project-invariant static-analysis
// driver: a small, stdlib-only analyzer framework (go/ast + go/types, no
// golang.org/x/tools dependency) plus the eight project-specific analyzers
// that machine-enforce the conventions the test suite certifies but
// nothing previously checked at the source level:
//
//   - nodeterminism: algorithm packages draw randomness only through
//     internal/rng and never read the wall clock (TestPipelineEquivalence
//     certifies byte-identical RR sets across worker counts; a stray
//     math/rand or time.Now silently breaks that property).
//   - hotpath-alloc: functions annotated //subsim:hotpath must stay free
//     of interface boxing, capturing closures, appends to unsized local
//     slices, and fmt calls (the arena pipeline's 0 allocs/set contract).
//   - niltracer: exported functions accepting the obs tracer/metric types
//     must be provably nil-safe before the first dereference (the
//     nil-tracer zero-overhead contract).
//   - floateq: no ==/!= on floating-point values in the concentration
//     bound and sampling arithmetic.
//   - errcheck: no silently dropped errors in non-test code.
//   - atomicmix: no sync/atomic functions; a struct field of a
//     sync/atomic type is never plainly read or written outside its
//     constructor (the COW-span memory-ordering contract).
//   - gocapture: goroutines spawned inside //subsim:parallel functions
//     must write captured slices only at parameter-derived indices, never
//     write captured maps, and never call WaitGroup.Add from inside the
//     goroutine (the disjoint-write decomposition contract).
//   - directives: every //lint: and //subsim: directive must be known,
//     well-formed, and actually used — stale suppressions are errors.
//
// By-value copies of locks and typed atomics are left to go vet's
// copylocks check (make vet).
//
// Suppressions are line-scoped: `//lint:allow <class> [reason]` on the
// offending line, the line above it, or a continuation line of the same
// statement. See DESIGN.md, "Enforced invariants".
package lintpass

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Diagnostic is one analyzer finding, positioned in the file set the
// package was loaded with.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	// Class is the suppression class a //lint:allow directive can name;
	// empty for findings that must be fixed, not suppressed.
	Class string `json:"class,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string
	// Doc is a one-line description shown by `subsimlint -list`.
	Doc string
	// Run inspects the package behind pass and reports findings through
	// pass.Report / pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	Dir        string // package directory (absolute)
	Path       string // import path within the module
	Directives *DirectiveSet

	sink *[]Diagnostic
}

// Reportf reports a non-suppressible finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, "", format, args...)
}

// Report reports a finding at pos that may be suppressed by a
// `//lint:allow class` directive on the same or the preceding line.
// Suppressed findings are dropped and the directive is marked used (an
// unused directive is a stale-suppression error, see the directives
// analyzer).
func (p *Pass) Report(pos token.Pos, class, format string, args ...any) {
	position := p.Fset.Position(pos)
	if class != "" && p.Directives.suppress(class, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Class:    class,
	})
}

// All returns the full analyzer suite in execution order. The directives
// analyzer is last by construction: stale-suppression detection needs
// every other analyzer to have claimed its directives first.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		HotPathAlloc,
		NilTracer,
		FloatEq,
		ErrCheck,
		AtomicMix,
		GoCapture,
		Directives,
	}
}

// Run executes the analyzers over the loaded packages and returns the
// combined findings sorted by position.
//
// Execution is parallel on two axes — across packages, and across
// analyzers within each package — because the packages are already
// loaded and type-checked (the expensive, serial part) and the
// analyzers only read the shared ASTs and types.Info. The per-package
// DirectiveSet is the one piece of mutable shared state (suppression
// bookkeeping); it locks internally. The directives analyzer, when
// present, still runs strictly after every other analyzer of its
// package has joined, so stale-suppression detection sees the complete
// set of consumed waivers; diagnostics are merged and sorted at the
// end, so output order is independent of scheduling.
//
//subsim:parallel
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ordered := make([]*Analyzer, 0, len(analyzers))
	var hygiene *Analyzer
	for _, a := range analyzers {
		if a.Name == Directives.Name {
			hygiene = a
			continue
		}
		ordered = append(ordered, a)
	}

	perPkg := make([][]Diagnostic, len(pkgs))
	var pkgWG sync.WaitGroup
	for i, pkg := range pkgs {
		pkgWG.Add(1)
		go func(i int, pkg *Package) {
			defer pkgWG.Done()
			perPkg[i] = runPackage(pkg, ordered, hygiene)
		}(i, pkg)
	}
	pkgWG.Wait()

	var out []Diagnostic
	for _, ds := range perPkg {
		out = append(out, ds...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// runPackage fans the non-hygiene analyzers of one package out across
// goroutines (each with a private sink), joins, then runs the hygiene
// analyzer so it observes every consumed directive.
//
//subsim:parallel
func runPackage(pkg *Package, ordered []*Analyzer, hygiene *Analyzer) []Diagnostic {
	ds := newDirectiveSet(pkg.Fset, pkg.Files)
	newPass := func(a *Analyzer, sink *[]Diagnostic) *Pass {
		return &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			Dir:        pkg.Dir,
			Path:       pkg.Path,
			Directives: ds,
			sink:       sink,
		}
	}
	sinks := make([][]Diagnostic, len(ordered)+1)
	var wg sync.WaitGroup
	for j, a := range ordered {
		wg.Add(1)
		go func(j int, a *Analyzer) {
			defer wg.Done()
			a.Run(newPass(a, &sinks[j]))
		}(j, a)
	}
	wg.Wait()
	if hygiene != nil {
		hygiene.Run(newPass(hygiene, &sinks[len(ordered)]))
	}
	var out []Diagnostic
	for _, s := range sinks {
		out = append(out, s...)
	}
	return out
}
