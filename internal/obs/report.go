package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Schema identifies the run-report JSON document type; Version is bumped
// on any incompatible change so trajectories of BENCH_*.json-style
// artifacts can be diffed safely across repo versions.
const (
	Schema        = "subsim.run-report"
	SchemaVersion = 1
)

// SpanSnapshot is one span in a report: name, offset from the trace
// epoch, duration, attributes, and nested children. Open is only ever
// true in *live* snapshots (Tracer.LiveSpans); final run reports close
// every span.
type SpanSnapshot struct {
	Name       string          `json:"name"`
	StartNS    int64           `json:"start_ns"`
	DurationNS int64           `json:"duration_ns"`
	Open       bool            `json:"open,omitempty"`
	Attrs      map[string]any  `json:"attrs,omitempty"`
	Children   []*SpanSnapshot `json:"children,omitempty"`
}

// Duration returns the span duration as a time.Duration.
func (s *SpanSnapshot) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.DurationNS)
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s (including s itself), or nil.
func (s *SpanSnapshot) Find(name string) *SpanSnapshot {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Report is the machine-readable summary of one run: the span tree, the
// metric snapshots, and run-level metadata. Build one with
// Tracer.Report; serialise it with WriteJSON.
type Report struct {
	Schema     string                       `json:"schema"`
	Version    int                          `json:"version"`
	Meta       map[string]any               `json:"meta,omitempty"`
	Spans      []*SpanSnapshot              `json:"spans,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	WorkerSets []int64                      `json:"worker_sets,omitempty"`
	WorkerBusy []int64                      `json:"worker_busy_ns,omitempty"`
}

// Report snapshots the tracer into a schema-versioned document. Open
// spans are closed at the current clock reading. Returns nil on a nil
// tracer, so `res.Report = opt.Tracer.Report()` threads disabled tracing
// through for free.
func (t *Tracer) Report() *Report {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &Report{
		Schema:  Schema,
		Version: SchemaVersion,
	}
	if len(t.meta) > 0 {
		r.Meta = make(map[string]any, len(t.meta))
		for k, v := range t.meta {
			r.Meta[k] = v
		}
	}
	for _, s := range t.roots {
		r.Spans = append(r.Spans, snapshotSpan(s, now))
	}
	m := t.metrics
	r.Counters = map[string]int64{
		"rr_sets_total":           m.Sets.Load(),
		"rr_nodes_total":          m.Nodes.Load(),
		"rr_edges_examined_total": m.Edges.Load(),
		"sentinel_hits_total":     m.SentinelHits.Load(),
		"index_entries_total":     m.IndexEntries.Load(),
	}
	if lower, upper, approx, round := m.Lower.Load(), m.Upper.Load(), m.Approx.Load(), m.Round.Load(); lower != 0 || upper != 0 || approx != 0 || round != 0 {
		r.Gauges = map[string]float64{
			"bound_lower": lower,
			"bound_upper": upper,
			"approx":      approx,
			"round":       float64(round),
		}
	}
	if tw := m.ThetaWorst.Load(); tw != 0 {
		if r.Gauges == nil {
			r.Gauges = map[string]float64{}
		}
		r.Gauges["theta_worst"] = float64(tw)
	}
	r.Histograms = map[string]HistogramSnapshot{
		"index_build_ns":          m.IndexBuild.Snapshot(),
		"index_build_serial_ns":   m.IndexBuildSerial.Snapshot(),
		"index_build_parallel_ns": m.IndexBuildParallel.Snapshot(),
	}
	r.WorkerSets = m.WorkerSnapshot()
	r.WorkerBusy = m.WorkerBusySnapshot()
	return r
}

// LiveSpans snapshots the span forest *without* waiting for the run to
// finish: still-open spans are reported with their duration so far and
// Open=true. The walk is lock-free over the copy-on-write span fields —
// see the package comment's memory-ordering contract — so it is safe to
// call from a scrape handler while the run's coordinator goroutine keeps
// opening and closing spans. Returns nil on a nil tracer.
func (t *Tracer) LiveSpans() []*SpanSnapshot {
	if t == nil {
		return nil
	}
	now := t.now()
	var out []*SpanSnapshot
	for _, s := range t.liveRoots() {
		out = append(out, snapshotSpan(s, now))
	}
	return out
}

func snapshotSpan(s *Span, now int64) *SpanSnapshot {
	end := s.endNS.Load()
	open := end == 0
	if open {
		end = now
	}
	out := &SpanSnapshot{
		Name:       s.name,
		StartNS:    s.startNS,
		DurationNS: end - s.startNS,
		Open:       open,
	}
	if attrs := s.liveAttrs(); len(attrs) > 0 {
		out.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.liveChildren() {
		out.Children = append(out.Children, snapshotSpan(c, now))
	}
	return out
}

// Span returns the first span named name across the report's span
// forest (depth-first), or nil.
func (r *Report) Span(name string) *SpanSnapshot {
	if r == nil {
		return nil
	}
	for _, s := range r.Spans {
		if hit := s.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// SpanAgg aggregates all spans sharing one name: how many there were and
// their total duration.
type SpanAgg struct {
	Name    string
	Count   int
	TotalNS int64
}

// Total returns the aggregate duration.
func (a SpanAgg) Total() time.Duration { return time.Duration(a.TotalNS) }

// AggregateSpans flattens the span forest into per-name totals, in
// first-seen depth-first order — the "where did the time go" view the
// CLIs print.
func (r *Report) AggregateSpans() []SpanAgg {
	if r == nil {
		return nil
	}
	var order []string
	aggs := map[string]*SpanAgg{}
	var walk func(s *SpanSnapshot)
	walk = func(s *SpanSnapshot) {
		a := aggs[s.Name]
		if a == nil {
			a = &SpanAgg{Name: s.Name}
			aggs[s.Name] = a
			order = append(order, s.Name)
		}
		a.Count++
		a.TotalNS += s.DurationNS
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range r.Spans {
		walk(s)
	}
	out := make([]SpanAgg, 0, len(order))
	for _, name := range order {
		out = append(out, *aggs[name])
	}
	return out
}

// WriteJSON writes the report as indented JSON. Map keys are emitted in
// sorted order by encoding/json, so the output is stable for diffing and
// golden tests.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
