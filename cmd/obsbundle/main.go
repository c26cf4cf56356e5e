// obsbundle inspects the diagnostic bundles written by the flight
// recorder (internal/obs/flight): crash dumps from panics, stall
// watchdog firings, SIGUSR1/SIGQUIT, or GET /debug/bundle.
//
// Usage:
//
//	obsbundle [flags] <bundle-dir>
//
// It prints the manifest (tool, reason, creation time, file sizes and
// per-artifact errors), the journal tail with per-kind event counts, the
// runtime-metrics history ranges, and the report's top phases by total
// time. To diff two bundles' run reports, hand the bundle directories to
// obsdiff.
//
// Flags:
//
//	-events N       journal-tail rows (default 12, 0 = all)
//	-json           machine-readable output
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"subsim/internal/obs"
	"subsim/internal/obs/flight"
	"subsim/internal/obsdiff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("obsbundle", flag.ContinueOnError)
	events := fs.Int("events", 12, "journal-tail rows (0 = all)")
	asJSON := fs.Bool("json", false, "emit machine-readable output")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(out, "usage: obsbundle [flags] <bundle-dir>")
		return 2
	}
	return summarize(out, fs.Arg(0), *events, *asJSON)
}

// summaryDoc is the -json summary shape: the manifest plus the decoded
// auxiliary views (absent sections are omitted, e.g. when an artifact
// failed to produce).
type summaryDoc struct {
	Path     string          `json:"path"`
	Manifest flight.Manifest `json:"manifest"`
	Journal  *journalView    `json:"journal,omitempty"`
	History  *historyView    `json:"history,omitempty"`
	Phases   []obs.SpanAgg   `json:"phases,omitempty"`
}

type journalView struct {
	Written int64          `json:"written"`
	Dropped int64          `json:"dropped"`
	ByKind  map[string]int `json:"by_kind"`
	Tail    []flight.Event `json:"tail"`
}

type historyView struct {
	Samples int64           `json:"samples"`
	Dropped int64           `json:"dropped"`
	Series  []seriesSummary `json:"series"`
}

type seriesSummary struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Last float64 `json:"last"`
}

func summarize(out io.Writer, dir string, tailN int, asJSON bool) int {
	man, err := flight.ReadManifest(dir)
	if err != nil {
		fmt.Fprintf(out, "obsbundle: %v\n", err)
		return 2
	}
	doc := summaryDoc{Path: dir, Manifest: man}
	doc.Journal = loadJournal(filepath.Join(dir, "journal.json"), tailN)
	doc.History = loadHistory(filepath.Join(dir, "history.json"))
	doc.Phases = loadPhases(filepath.Join(dir, "report.json"))

	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(out, "obsbundle: %v\n", err)
			return 2
		}
		return 0
	}

	fmt.Fprintf(out, "bundle   %s\n", dir)
	if man.Tool != "" {
		fmt.Fprintf(out, "tool     %s\n", man.Tool)
	}
	fmt.Fprintf(out, "reason   %s\n", man.Reason)
	fmt.Fprintf(out, "created  %s\n", time.Unix(0, man.CreatedNS).UTC().Format(time.RFC3339Nano))
	fmt.Fprintf(out, "\nfiles (%d):\n", len(man.Files))
	for _, f := range man.Files {
		if f.Error != "" {
			fmt.Fprintf(out, "  %-16s ERROR: %s\n", f.Name, f.Error)
		} else {
			fmt.Fprintf(out, "  %-16s %8d bytes\n", f.Name, f.Bytes)
		}
	}
	if j := doc.Journal; j != nil {
		fmt.Fprintf(out, "\njournal: %d events written, %d dropped\n", j.Written, j.Dropped)
		for _, kind := range sortedKeys(j.ByKind) {
			fmt.Fprintf(out, "  %-16s %6d\n", kind, j.ByKind[kind])
		}
		if len(j.Tail) > 0 {
			fmt.Fprintf(out, "journal tail (%d):\n", len(j.Tail))
			for _, e := range j.Tail {
				fmt.Fprintf(out, "  %s\n", formatEvent(e))
			}
		}
	}
	if h := doc.History; h != nil {
		fmt.Fprintf(out, "\nruntime-metrics history: %d samples, %d dropped\n", h.Samples, h.Dropped)
		for _, s := range h.Series {
			fmt.Fprintf(out, "  %-24s min %14.0f  max %14.0f  last %14.0f\n", s.Name, s.Min, s.Max, s.Last)
		}
	}
	if len(doc.Phases) > 0 {
		fmt.Fprintf(out, "\ntop phases by total time:\n")
		for _, p := range doc.Phases {
			fmt.Fprintf(out, "  %-28s %12s  ×%d\n", p.Name, time.Duration(p.TotalNS), p.Count)
		}
	}
	return 0
}

// formatEvent renders one journal event for the summary tail. Journal
// times are offsets on the tracer's monotonic clock, so they print as
// +durations, not wall-clock times.
func formatEvent(e flight.Event) string {
	s := fmt.Sprintf("%-16s s%d  %-14s", "+"+time.Duration(e.TimeNS).String(), e.Stream, e.Kind)
	if e.Label != "" {
		s += " " + e.Label
	}
	if e.A != 0 || e.B != 0 {
		s += fmt.Sprintf(" a=%d b=%d", e.A, e.B)
	}
	if e.F1 != 0 || e.F2 != 0 || e.F3 != 0 {
		s += fmt.Sprintf(" f=(%g, %g, %g)", e.F1, e.F2, e.F3)
	}
	return s
}

// loadJournal decodes a bundle's journal.json into the summary view;
// nil when the artifact is missing or malformed (the manifest already
// records producer errors, so a broken artifact is not fatal here).
func loadJournal(path string, tailN int) *journalView {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var doc struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
		flight.Snapshot
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Schema != flight.JournalSchema {
		return nil
	}
	v := &journalView{Written: doc.Written, Dropped: doc.Dropped, ByKind: map[string]int{}}
	for _, e := range doc.Events {
		v.ByKind[e.Kind.String()]++
	}
	v.Tail = doc.Events
	if tailN > 0 && len(v.Tail) > tailN {
		v.Tail = v.Tail[len(v.Tail)-tailN:]
	}
	return v
}

// loadHistory decodes a bundle's history.json into per-series ranges.
func loadHistory(path string) *historyView {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var doc struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
		flight.HistorySnapshot
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Schema != flight.HistorySchema {
		return nil
	}
	v := &historyView{Samples: doc.Written, Dropped: doc.Dropped}
	for i, name := range doc.Series {
		s := seriesSummary{Name: name}
		for n, sample := range doc.Samples {
			if i >= len(sample.Values) {
				continue
			}
			val := sample.Values[i]
			if n == 0 || val < s.Min {
				s.Min = val
			}
			if n == 0 || val > s.Max {
				s.Max = val
			}
			s.Last = val
		}
		v.Series = append(v.Series, s)
	}
	return v
}

// loadPhases reads a bundle's report.json and returns the aggregated
// span totals, largest first, capped at the top eight.
func loadPhases(path string) []obs.SpanAgg {
	r, err := obsdiff.LoadReport(path)
	if err != nil {
		return nil
	}
	agg := r.AggregateSpans()
	sort.Slice(agg, func(i, j int) bool { return agg[i].TotalNS > agg[j].TotalNS })
	if len(agg) > 8 {
		agg = agg[:8]
	}
	return agg
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
