package serve

import (
	"net/http"

	"subsim/internal/obs"
	"subsim/internal/obs/timeline"
)

// timelineOf returns the plane's attached execution timeline, or nil
// when no tracer is attached or EnableTimeline was never called.
func (p *Plane) timelineOf() *timeline.Timeline {
	return p.tracer.Timeline()
}

// handleTimeline serves the per-phase utilization/imbalance summary of
// the execution timeline as JSON (404 until EnableTimeline is called).
func (p *Plane) handleTimeline(w http.ResponseWriter, _ *http.Request) {
	tl := p.timelineOf()
	if tl == nil {
		http.Error(w, "no timeline enabled", http.StatusNotFound)
		return
	}
	sum := timeline.Summarize(tl.Snapshot())
	writeJSON(w, http.StatusOK, sum)
}

// handleTrace serves the full execution timeline as a Chrome trace-event
// JSON document — loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing — with one track per worker plus a "phases" track
// rendered from the tracer's live span tree. Works mid-run: both the
// timeline snapshot and the span walk are lock-free.
func (p *Plane) handleTrace(w http.ResponseWriter, _ *http.Request) {
	tl := p.timelineOf()
	if tl == nil {
		http.Error(w, "no timeline enabled", http.StatusNotFound)
		return
	}
	snap := tl.Snapshot()
	spans := flattenSpans(p.tracer.LiveSpans())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="subsim.trace.json"`)
	if err := timeline.WriteTrace(w, snap, spans); err != nil {
		// Headers are gone; nothing more useful to do than drop the conn.
		_ = err
	}
}

// flattenSpans walks a span forest depth-first into the flat
// phase-track shape the Chrome trace exporter takes. Nested spans become
// overlapping slices on the single phase track, which trace viewers
// render stacked.
func flattenSpans(roots []*obs.SpanSnapshot) []timeline.Span {
	var out []timeline.Span
	var walk func(s *obs.SpanSnapshot)
	walk = func(s *obs.SpanSnapshot) {
		out = append(out, timeline.Span{
			Name:    s.Name,
			StartNS: s.StartNS,
			EndNS:   s.StartNS + s.DurationNS,
		})
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range roots {
		walk(s)
	}
	return out
}
