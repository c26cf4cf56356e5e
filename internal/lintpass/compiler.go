package lintpass

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Compiler-telemetry gate: the AST analyzers police what the source
// says; this half polices what the compiler *does* with it. The arena
// pipeline's throughput rests on two optimiser outcomes the test suite
// can only observe indirectly (allocs/op, ns/op): hot-path values
// staying on the stack, and bounds checks being eliminated from the
// inner loops. Both regress silently — an innocent refactor that makes
// a closure capture a variable, or re-orders an index expression past
// what prove can see, shows up as a few percent of throughput weeks
// later. The gate makes the compiler's own escape analysis (-m=1) and
// bounds-check elimination debug output (-d=ssa/check_bce/debug=1)
// part of the lint contract: every //subsim:hotpath function's heap
// escapes and remaining bounds checks are counted, attributed, and
// compared against a committed baseline; any gain fails the build.

// FuncTelemetry is the per-function diagnostic count, with the raw
// compiler lines kept for reporting.
type FuncTelemetry struct {
	Hotpath bool     `json:"hotpath,omitempty"`
	Escapes []string `json:"escapes,omitempty"`
	Bounds  []string `json:"bounds,omitempty"`
}

// Telemetry maps receiver-qualified function keys — e.g.
// "internal/im.(*Batcher).fillShard" — to their diagnostic counts
// for one compile of the module.
type Telemetry struct {
	ModulePath string
	Funcs      map[string]*FuncTelemetry
}

// CompilerConfig configures one telemetry collection run.
type CompilerConfig struct {
	// Dir is the module root the build runs in.
	Dir string
	// Patterns are the package patterns to compile; default ./...
	Patterns []string
	// Rebuild passes -a, defeating the build cache: cached compiles do
	// not replay their diagnostics, so an incremental build reports
	// only changed packages. The production gate must rebuild; tests on
	// fresh temp modules (never cached) can skip it.
	Rebuild bool
}

// CollectCompilerTelemetry compiles the module with escape-analysis and
// BCE debugging enabled and attributes every heap-escape and
// bounds-check diagnostic to its enclosing function.
func CollectCompilerTelemetry(cfg CompilerConfig) (*Telemetry, error) {
	modPath, err := modulePathOf(cfg.Dir)
	if err != nil {
		return nil, err
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"build"}
	if cfg.Rebuild {
		args = append(args, "-a")
	}
	// Scope the flags to this module's packages: stdlib and dependency
	// diagnostics would otherwise drown the output (and print absolute
	// GOROOT paths the attribution below has no ASTs for).
	args = append(args, fmt.Sprintf("-gcflags=%s/...=-m=1 -d=ssa/check_bce/debug=1", modPath))
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stderr bytes.Buffer
	cmd.Stdout = &stderr // go build prints nothing on stdout, but merge anyway
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}

	tel := &Telemetry{ModulePath: modPath, Funcs: map[string]*FuncTelemetry{}}
	extents := map[string][]funcExtent{} // file (module-relative) -> extents, lazily parsed
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		file, line, msg, ok := parseDiagnostic(sc.Text())
		if !ok {
			continue
		}
		kind := classifyDiagnostic(msg)
		if kind == diagOther {
			continue
		}
		exts, cached := extents[file]
		if !cached {
			exts = fileFuncExtents(filepath.Join(cfg.Dir, file), filepath.ToSlash(filepath.Dir(file)))
			extents[file] = exts
		}
		key, hot := attribute(exts, line, filepath.ToSlash(filepath.Dir(file)))
		ft := tel.Funcs[key]
		if ft == nil {
			ft = &FuncTelemetry{Hotpath: hot}
			tel.Funcs[key] = ft
		}
		ref := fmt.Sprintf("%s:%d: %s", file, line, msg)
		switch kind {
		case diagEscape:
			ft.Escapes = append(ft.Escapes, ref)
		case diagBounds:
			ft.Bounds = append(ft.Bounds, ref)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Hotpath functions with zero diagnostics still belong in the
	// telemetry: the baseline records them explicitly so a future gain
	// is a diff against 0, not a missing entry.
	for file, exts := range allHotpathExtents(cfg.Dir, patterns, extents) {
		for _, e := range exts {
			if !e.hotpath {
				continue
			}
			key := filepath.ToSlash(filepath.Dir(file)) + "." + e.name
			if tel.Funcs[key] == nil {
				tel.Funcs[key] = &FuncTelemetry{Hotpath: true}
			} else {
				tel.Funcs[key].Hotpath = true
			}
		}
	}
	return tel, nil
}

type diagKind int

const (
	diagOther diagKind = iota
	diagEscape
	diagBounds
)

// classifyDiagnostic buckets one compiler message. -m=1 also prints
// inlining decisions and parameter-leak notes; only true heap moves
// count as escapes, and only the BCE debug lines as bounds checks.
func classifyDiagnostic(msg string) diagKind {
	switch {
	case strings.HasSuffix(msg, "escapes to heap"),
		strings.Contains(msg, "escapes to heap:"),
		strings.HasPrefix(msg, "moved to heap:"):
		return diagEscape
	case strings.HasPrefix(msg, "Found IsInBounds"),
		strings.HasPrefix(msg, "Found IsSliceInBounds"):
		return diagBounds
	}
	return diagOther
}

// parseDiagnostic splits a `file.go:line:col: msg` compiler line.
// Absolute paths (stdlib, other modules) and non-diagnostic lines
// ("# package" headers) are rejected.
func parseDiagnostic(text string) (file string, line int, msg string, ok bool) {
	if text == "" || strings.HasPrefix(text, "#") || filepath.IsAbs(text) {
		return "", 0, "", false
	}
	idx := strings.Index(text, ".go:")
	if idx < 0 {
		return "", 0, "", false
	}
	file = text[:idx+3]
	rest := text[idx+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return "", 0, "", false
	}
	line, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", 0, "", false
	}
	return file, line, strings.TrimSpace(parts[2]), true
}

// funcExtent is one function declaration's line range in a file.
type funcExtent struct {
	name       string // receiver-qualified: Fill, (*Batcher).fillShard
	start, end int
	hotpath    bool
}

// fileFuncExtents parses one file (syntax only — no type information is
// needed for line attribution) and returns its function extents. A file
// that fails to parse yields no extents; its diagnostics then attribute
// to the package-level pseudo-function.
func fileFuncExtents(path, pkgDir string) []funcExtent {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil
	}
	var out []funcExtent
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fn.Name.Name
		if fn.Recv != nil && len(fn.Recv.List) > 0 {
			recv := recvString(fn.Recv.List[0].Type)
			name = recv + "." + fn.Name.Name
		}
		hot := false
		if fn.Doc != nil {
			for _, c := range fn.Doc.List {
				if strings.TrimSpace(c.Text) == "//subsim:hotpath" {
					hot = true
				}
			}
		}
		out = append(out, funcExtent{
			name:    name,
			start:   fset.Position(fn.Pos()).Line,
			end:     fset.Position(fn.End()).Line,
			hotpath: hot,
		})
	}
	return out
}

// recvString renders a receiver type expression: Batcher, (*Batcher),
// (*Ring[T]) — matching the compiler's own -m attribution style closely
// enough to be stable keys.
func recvString(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return "(*" + recvBase(t.X) + ")"
	default:
		return recvBase(t)
	}
}

func recvBase(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvBase(t.X)
	case *ast.IndexListExpr:
		return recvBase(t.X)
	case *ast.ParenExpr:
		return recvBase(t.X)
	}
	return "?"
}

// attribute maps a diagnostic line to the function containing it, or to
// the package-level pseudo-function "(toplevel)".
func attribute(exts []funcExtent, line int, pkgDir string) (key string, hotpath bool) {
	for _, e := range exts {
		if line >= e.start && line <= e.end {
			return pkgDir + "." + e.name, e.hotpath
		}
	}
	return pkgDir + ".(toplevel)", false
}

// allHotpathExtents walks the module's non-testdata .go files that were
// not already parsed during attribution so zero-diagnostic hotpath
// functions still enter the telemetry. The already-parsed extents are
// reused.
func allHotpathExtents(dir string, patterns []string, parsed map[string][]funcExtent) map[string][]funcExtent {
	out := map[string][]funcExtent{}
	for file, exts := range parsed {
		out[file] = exts
	}
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return nil
		}
		if _, ok := out[rel]; ok {
			return nil
		}
		out[rel] = fileFuncExtents(path, filepath.ToSlash(filepath.Dir(rel)))
		return nil
	})
	return out
}

// modulePathOf reads the module path out of dir's go.mod.
func modulePathOf(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("compiler telemetry needs a module root: %w", err)
	}
	if mp := modulePath(data); mp != "" {
		return mp, nil
	}
	return "", fmt.Errorf("no module line in %s/go.mod", dir)
}

// BaselineEntry is the committed per-function budget.
type BaselineEntry struct {
	Escapes int `json:"escapes"`
	Bounds  int `json:"bounds"`
}

// Baseline is the committed compiler-telemetry contract: every
// //subsim:hotpath function with its accepted heap-escape and
// bounds-check counts. Refreshed with `subsimlint -compiler
// -baseline-write` (see `make escape-baseline`) after a reviewed,
// intentional change.
type Baseline struct {
	Comment string                   `json:"comment,omitempty"`
	Hotpath map[string]BaselineEntry `json:"hotpath"`
}

// NewBaseline extracts the hotpath entries from one telemetry run.
func NewBaseline(tel *Telemetry) *Baseline {
	b := &Baseline{
		Comment: "Compiler-telemetry budget for //subsim:hotpath functions: accepted heap escapes and remaining bounds checks per function. Gated by `make escape-gate`; refresh deliberately with `make escape-baseline`.",
		Hotpath: map[string]BaselineEntry{},
	}
	for key, ft := range tel.Funcs {
		if !ft.Hotpath {
			continue
		}
		b.Hotpath[key] = BaselineEntry{Escapes: len(ft.Escapes), Bounds: len(ft.Bounds)}
	}
	return b
}

// ReadBaseline loads a committed baseline file.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Hotpath == nil {
		b.Hotpath = map[string]BaselineEntry{}
	}
	return &b, nil
}

// WriteBaseline writes the baseline with stable key order.
func WriteBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Gate compares one telemetry run against the committed baseline and
// returns the failures: any hotpath function whose escape or
// bounds-check count exceeds its budget, or a new hotpath function with
// nonzero counts and no budget at all. Improvements (counts below
// budget) pass; the returned notes suggest refreshing the baseline so
// the win is locked in.
func Gate(tel *Telemetry, baseline *Baseline) (failures, notes []string) {
	keys := make([]string, 0, len(tel.Funcs))
	for key, ft := range tel.Funcs {
		if ft.Hotpath {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		ft := tel.Funcs[key]
		budget, known := baseline.Hotpath[key]
		if !known {
			if len(ft.Escapes)+len(ft.Bounds) > 0 {
				failures = append(failures, fmt.Sprintf(
					"%s: hotpath function not in baseline with %d escape(s), %d bounds check(s)%s",
					key, len(ft.Escapes), len(ft.Bounds), detailLines(ft)))
			} else {
				notes = append(notes, fmt.Sprintf("%s: new clean hotpath function; refresh the baseline to pin it", key))
			}
			continue
		}
		if n := len(ft.Escapes); n > budget.Escapes {
			failures = append(failures, fmt.Sprintf(
				"%s: %d heap escape(s), budget %d%s", key, n, budget.Escapes, detailLines(ft)))
		} else if n < budget.Escapes {
			notes = append(notes, fmt.Sprintf("%s: escapes improved %d -> %d; refresh the baseline to lock it in", key, budget.Escapes, n))
		}
		if n := len(ft.Bounds); n > budget.Bounds {
			failures = append(failures, fmt.Sprintf(
				"%s: %d bounds check(s), budget %d%s", key, n, budget.Bounds, boundsLines(ft)))
		} else if n < budget.Bounds {
			notes = append(notes, fmt.Sprintf("%s: bounds checks improved %d -> %d; refresh the baseline to lock it in", key, budget.Bounds, n))
		}
	}
	// Baseline entries whose function vanished are stale budget: not a
	// failure (deleting a hotpath function is legitimate), but noted so
	// the file does not rot.
	baseKeys := make([]string, 0, len(baseline.Hotpath))
	for key := range baseline.Hotpath {
		baseKeys = append(baseKeys, key)
	}
	sort.Strings(baseKeys)
	for _, key := range baseKeys {
		if ft, ok := tel.Funcs[key]; !ok || !ft.Hotpath {
			notes = append(notes, fmt.Sprintf("%s: baseline entry has no hotpath function anymore; refresh the baseline", key))
		}
	}
	return failures, notes
}

func detailLines(ft *FuncTelemetry) string {
	var sb strings.Builder
	for _, e := range ft.Escapes {
		_, _ = sb.WriteString("\n    ")
		_, _ = sb.WriteString(e)
	}
	return sb.String()
}

func boundsLines(ft *FuncTelemetry) string {
	var sb strings.Builder
	for _, b := range ft.Bounds {
		_, _ = sb.WriteString("\n    ")
		_, _ = sb.WriteString(b)
	}
	return sb.String()
}
