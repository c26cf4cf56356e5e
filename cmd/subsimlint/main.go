// Command subsimlint runs the repository's project-invariant static
// analyzers (see internal/lintpass) over Go packages and exits non-zero
// when any invariant is violated.
//
// Standalone usage:
//
//	subsimlint ./...            # lint the whole module, human-readable
//	subsimlint -json ./...      # machine-readable diagnostics
//	subsimlint -list            # describe the analyzers and directives
//
// Compiler-telemetry gate (see internal/lintpass/compiler.go): compile
// the module with escape-analysis and bounds-check-elimination debug
// output, attribute the diagnostics to functions, and fail if any
// //subsim:hotpath function exceeds its committed budget:
//
//	subsimlint -compiler ./...                  # gate against lint_baseline.json
//	subsimlint -compiler -baseline-write ./...  # refresh the baseline deliberately
//
// Exit codes: 0 clean, 1 diagnostics found, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"subsim/internal/lintpass"
)

func main() {
	var (
		jsonOut       = flag.Bool("json", false, "emit diagnostics as a JSON array")
		list          = flag.Bool("list", false, "list analyzers and suppression classes, then exit")
		compiler      = flag.Bool("compiler", false, "run the compiler-telemetry gate instead of the AST analyzers")
		baselinePath  = flag.String("baseline", "lint_baseline.json", "compiler-telemetry baseline file (with -compiler)")
		baselineWrite = flag.Bool("baseline-write", false, "write the baseline from the current build instead of gating (with -compiler)")
		noRebuild     = flag.Bool("no-rebuild", false, "skip the forced rebuild (-a); only sound on a cold build cache (with -compiler)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: subsimlint [-json] [-compiler [-baseline file] [-baseline-write]] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *list:
		printAnalyzers()
		return
	case *compiler:
		os.Exit(compilerGate(flag.Args(), *baselinePath, *baselineWrite, !*noRebuild))
	}

	loader := lintpass.NewLoader()
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "subsimlint:", err)
		os.Exit(2)
	}
	diags := lintpass.Run(pkgs, lintpass.All())
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lintpass.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "subsimlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "subsimlint: %d diagnostic(s) across %d package(s)\n", len(diags), len(pkgs))
		}
		os.Exit(1)
	}
}

// compilerGate runs the -compiler mode: collect escape/bounds telemetry
// for the module in the current directory and either refresh the
// baseline or gate against it. Exit codes follow the linter convention:
// 0 clean, 1 budget exceeded, 2 build or I/O failure.
func compilerGate(patterns []string, baselinePath string, write, rebuild bool) int {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "subsimlint:", err)
		return 2
	}
	tel, err := lintpass.CollectCompilerTelemetry(lintpass.CompilerConfig{
		Dir:      dir,
		Patterns: patterns,
		Rebuild:  rebuild,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "subsimlint:", err)
		return 2
	}
	if write {
		b := lintpass.NewBaseline(tel)
		if err := lintpass.WriteBaseline(baselinePath, b); err != nil {
			fmt.Fprintln(os.Stderr, "subsimlint:", err)
			return 2
		}
		fmt.Printf("subsimlint: wrote %s with %d hotpath function(s)\n", baselinePath, len(b.Hotpath))
		return 0
	}
	baseline, err := lintpass.ReadBaseline(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "subsimlint: %v (run with -baseline-write to create it)\n", err)
		return 2
	}
	failures, notes := lintpass.Gate(tel, baseline)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "subsimlint: compiler-telemetry gate: %d hotpath budget violation(s); fix the regression or deliberately refresh with -baseline-write\n", len(failures))
		return 1
	}
	fmt.Printf("subsimlint: compiler-telemetry gate clean (%d hotpath function(s) within budget)\n", countHotpath(tel))
	return 0
}

func countHotpath(tel *lintpass.Telemetry) int {
	n := 0
	for _, ft := range tel.Funcs {
		if ft.Hotpath {
			n++
		}
	}
	return n
}

func printAnalyzers() {
	for _, a := range lintpass.All() {
		fmt.Printf("%-15s %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("suppression: //lint:allow <class> [reason] on the offending or preceding line")
	classes := lintpass.KnownClasses()
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Printf("  %-10s (%s)\n", c, classes[c])
	}
	fmt.Println("annotation:  //subsim:hotpath in a function doc comment opts it into hotpath-alloc and the -compiler escape/bounds gate")
	fmt.Println("annotation:  //subsim:parallel in a function doc comment opts its go statements into gocapture")
}
