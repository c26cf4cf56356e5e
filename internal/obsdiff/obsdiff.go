// Package obsdiff is the run-report regression comparator behind the
// obsdiff CLI: it loads two schema-versioned run reports (the JSON
// documents produced by obs.Tracer.Report / imrun -trace / the serve
// plane's /report endpoint) and flags regressions, so observability
// artifacts can gate a run's performance.
//
// Four metric families are compared:
//
//   - phase times: the span forest of each report is flattened with
//     AggregateSpans (per-name totals), and each common name's total
//     duration is compared;
//   - counters: the report's counter map (rr_sets_total, ...), where
//     growth beyond tolerance means the run did more work;
//   - per-set costs derived from the counters: rr_nodes_per_set (nodes
//     over sets, Figure 3b's average RR-set size) and rr_edges_per_set
//     (edge examinations over sets, the Lemma 4 cost per set), which
//     flag costlier RR sets even when a run drew fewer of them;
//   - histograms: each common histogram's mean (sum/count) — a mean
//     shift beyond tolerance flags a distributional regression even
//     when totals moved less.
//
// Names present in only one report are informational (flagged, never
// fatal): algorithms add and rename phases across versions, and a gate
// that fails on renames would rot.
package obsdiff

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"subsim/internal/obs"
)

// Run is the obsdiff CLI entry point (factored here so cmd/obsdiff
// stays a thin wrapper and tests drive the full flag surface). Returns
// the process exit code: 0 clean, 1 regression, 2 usage/I-O error.
func Run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	tolerance := fs.Float64("tolerance", 0.15, "relative regression tolerance (0.15 = +15%)")
	spanFloor := fs.Duration("span-floor", time.Millisecond, "span totals below this base duration never fail the gate")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	all := fs.Bool("all", false, "print unchanged rows too")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(out, "usage: obsdiff [flags] <base.json> <new.json>")
		return 2
	}
	base, err := LoadReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(out, "obsdiff: %v\n", err)
		return 2
	}
	next, err := LoadReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(out, "obsdiff: %v\n", err)
		return 2
	}
	d := Compare(base, next, Options{Tolerance: *tolerance, SpanFloorNS: spanFloor.Nanoseconds()})
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			fmt.Fprintf(out, "obsdiff: %v\n", err)
			return 2
		}
	} else {
		d.WriteText(out, *all)
	}
	if d.Regressions > 0 {
		return 1
	}
	return 0
}

// LoadReport reads and schema-checks one run report.
func LoadReport(path string) (*obs.Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r obs.Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != obs.Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, obs.Schema)
	}
	if r.Version != obs.SchemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, want %d", path, r.Version, obs.SchemaVersion)
	}
	return &r, nil
}

// Options tunes the comparison.
type Options struct {
	// Tolerance is the allowed relative growth of a cost metric (0.15
	// allows +15%).
	Tolerance float64
	// SpanFloorNS exempts span totals whose base is below this many
	// nanoseconds from the gate (timer noise on micro-phases).
	SpanFloorNS int64
}

// Delta is one compared metric.
type Delta struct {
	// Kind is "span" (total ns), "counter", "per-set" (a counter over
	// rr_sets_total), or "histogram" (mean).
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Base and New are the metric values in each report; -1 marks a
	// side where the metric is absent.
	Base float64 `json:"base"`
	New  float64 `json:"new"`
	// Change is (New-Base)/Base, or 0 when Base is 0 or either side is
	// absent.
	Change float64 `json:"change"`
	// Regressed marks values that grew beyond tolerance.
	Regressed bool `json:"regressed,omitempty"`
	// Note is "base-only" / "new-only" for one-sided metrics, or
	// "below-floor" for spans exempted by the noise floor.
	Note string `json:"note,omitempty"`
}

// Diff is the full comparison document (-json output).
type Diff struct {
	Schema      string  `json:"schema"`
	Version     int     `json:"version"`
	Tolerance   float64 `json:"tolerance"`
	Deltas      []Delta `json:"deltas"`
	Regressions int     `json:"regressions"`
}

// DiffSchema identifies obsdiff's own JSON output.
const (
	DiffSchema        = "subsim.obsdiff"
	DiffSchemaVersion = 1
)

// Compare diffs two run reports.
func Compare(base, next *obs.Report, opt Options) *Diff {
	d := &Diff{Schema: DiffSchema, Version: DiffSchemaVersion, Tolerance: opt.Tolerance}
	d.compareSpans(base, next, opt)
	d.compareCounters(base, next, opt)
	d.comparePerSet(base, next, opt)
	d.compareHistograms(base, next, opt)
	for _, dl := range d.Deltas {
		if dl.Regressed {
			d.Regressions++
		}
	}
	return d
}

func (d *Diff) compareSpans(base, next *obs.Report, opt Options) {
	baseAgg := map[string]int64{}
	var order []string
	for _, a := range base.AggregateSpans() {
		baseAgg[a.Name] = a.TotalNS
		order = append(order, a.Name)
	}
	nextAgg := map[string]int64{}
	var nextOrder []string
	for _, a := range next.AggregateSpans() {
		nextAgg[a.Name] = a.TotalNS
		nextOrder = append(nextOrder, a.Name)
	}
	for _, name := range order {
		b := baseAgg[name]
		n, ok := nextAgg[name]
		if !ok {
			d.Deltas = append(d.Deltas, Delta{Kind: "span", Name: name, Base: float64(b), New: -1, Note: "base-only"})
			continue
		}
		dl := makeDelta("span", name, float64(b), float64(n), opt.Tolerance)
		if dl.Regressed && b < opt.SpanFloorNS {
			dl.Regressed = false
			dl.Note = "below-floor"
		}
		d.Deltas = append(d.Deltas, dl)
	}
	for _, name := range nextOrder {
		if _, ok := baseAgg[name]; !ok {
			d.Deltas = append(d.Deltas, Delta{Kind: "span", Name: name, Base: -1, New: float64(nextAgg[name]), Note: "new-only"})
		}
	}
}

func (d *Diff) compareCounters(base, next *obs.Report, opt Options) {
	for _, name := range sortedKeys(base.Counters) {
		b := base.Counters[name]
		n, ok := next.Counters[name]
		if !ok {
			d.Deltas = append(d.Deltas, Delta{Kind: "counter", Name: name, Base: float64(b), New: -1, Note: "base-only"})
			continue
		}
		d.Deltas = append(d.Deltas, makeDelta("counter", name, float64(b), float64(n), opt.Tolerance))
	}
	for _, name := range sortedKeys(next.Counters) {
		if _, ok := base.Counters[name]; !ok {
			d.Deltas = append(d.Deltas, Delta{Kind: "counter", Name: name, Base: -1, New: float64(next.Counters[name]), Note: "new-only"})
		}
	}
}

// comparePerSet diffs the per-RR-set costs derived from the counters;
// a report that drew no sets has none, and the row is skipped.
func (d *Diff) comparePerSet(base, next *obs.Report, opt Options) {
	for _, r := range []struct{ name, counter string }{
		{"rr_nodes_per_set", "rr_nodes_total"},
		{"rr_edges_per_set", "rr_edges_examined_total"},
	} {
		b, okB := perSet(base, r.counter)
		n, okN := perSet(next, r.counter)
		if okB && okN {
			d.Deltas = append(d.Deltas, makeDelta("per-set", r.name, b, n, opt.Tolerance))
		}
	}
}

// perSet returns r's counter divided by its rr_sets_total, or false
// when r drew no sets or lacks the counter.
func perSet(r *obs.Report, counter string) (float64, bool) {
	total, ok := r.Counters[counter]
	sets := r.Counters["rr_sets_total"]
	if !ok || sets <= 0 {
		return 0, false
	}
	return float64(total) / float64(sets), true
}

func (d *Diff) compareHistograms(base, next *obs.Report, opt Options) {
	for _, name := range sortedKeys(base.Histograms) {
		bh := base.Histograms[name]
		nh, ok := next.Histograms[name]
		if !ok {
			d.Deltas = append(d.Deltas, Delta{Kind: "histogram", Name: name, Base: histMean(bh), New: -1, Note: "base-only"})
			continue
		}
		if bh.Count == 0 && nh.Count == 0 {
			continue // both empty: nothing to compare
		}
		d.Deltas = append(d.Deltas, makeDelta("histogram", name, histMean(bh), histMean(nh), opt.Tolerance))
	}
	for _, name := range sortedKeys(next.Histograms) {
		if _, ok := base.Histograms[name]; !ok && next.Histograms[name].Count > 0 {
			d.Deltas = append(d.Deltas, Delta{Kind: "histogram", Name: name, Base: -1, New: histMean(next.Histograms[name]), Note: "new-only"})
		}
	}
}

func makeDelta(kind, name string, b, n, tol float64) Delta {
	dl := Delta{Kind: kind, Name: name, Base: b, New: n}
	if b > 0 {
		dl.Change = (n - b) / b
		dl.Regressed = dl.Change > tol
	} else if n > 0 {
		// Grew from zero: flag it — a cost appearing out of nowhere is
		// exactly what a regression gate exists to catch.
		dl.Change = 1
		dl.Regressed = true
	}
	return dl
}

func histMean(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders the human-readable table: regressed and changed rows
// always, unchanged rows only with all=true.
func (d *Diff) WriteText(out io.Writer, all bool) {
	fmt.Fprintf(out, "%-10s %-32s %14s %14s %9s\n", "kind", "name", "base", "new", "change")
	shown := 0
	for _, dl := range d.Deltas {
		if !all && !dl.Regressed && dl.Note == "" && dl.Change == 0 {
			continue
		}
		mark := ""
		if dl.Regressed {
			mark = "  << REGRESSED"
		} else if dl.Note != "" {
			mark = "  (" + dl.Note + ")"
		}
		fmt.Fprintf(out, "%-10s %-32s %14s %14s %8.1f%%%s\n",
			dl.Kind, dl.Name, fmtVal(dl.Base), fmtVal(dl.New), dl.Change*100, mark)
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(out, "(no differences)")
	}
	if d.Regressions > 0 {
		fmt.Fprintf(out, "\n%d regression(s) beyond +%.0f%% tolerance\n", d.Regressions, d.Tolerance*100)
	} else {
		fmt.Fprintf(out, "\nok: within +%.0f%% tolerance\n", d.Tolerance*100)
	}
}

func fmtVal(v float64) string {
	if v < 0 {
		return "-"
	}
	if v == float64(int64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
