package rrset

import (
	"subsim/internal/graph"
	"subsim/internal/obs"
	"subsim/internal/obs/ring"
	"subsim/internal/obs/timeline"
	"subsim/internal/rng"
)

// Instrumented wraps a Generator and streams per-set observations into
// an obs.MetricSet: the RR-size and edges-per-set histograms, the
// running totals, the sentinel-hit counter, and (when the wrapped
// generator supports it) the geometric-skip-length histogram. The
// wrapper keeps generator code clean — generators only maintain their
// plain Stats counters — and costs two Stats copies plus a handful of
// atomic adds per generated set, which is negligible against a reverse
// BFS.
//
// Like the generators it wraps, an Instrumented is not safe for
// concurrent use; Clone produces an independent wrapper sharing the
// (concurrency-safe) metric set.
type Instrumented struct {
	gen        Generator
	m          *obs.MetricSet
	workerSets *obs.Counter
	workerBusy *obs.Counter
	ring       *timeline.Ring
	clock      func() int64 // nil: the set is not timed
}

// skipInstrumentable is implemented by generators that can observe their
// geometric skip lengths into a histogram (currently Subsim).
type skipInstrumentable interface {
	setSkipHistogram(*obs.Histogram)
}

// Instrument wraps gen so every generated set is observed into m, with
// per-Generate increments on workerSets when non-nil (the Batcher passes
// one counter per worker). A nil m returns gen unchanged — the disabled
// path has literally zero overhead, which is what the nil-tracer
// contract promises and BenchmarkInstrumentedGenerate checks.
func Instrument(gen Generator, m *obs.MetricSet, workerSets *obs.Counter) Generator {
	if m == nil {
		return gen
	}
	if si, ok := gen.(skipInstrumentable); ok {
		si.setSkipHistogram(&m.SkipLen)
	}
	return &Instrumented{gen: gen, m: m, workerSets: workerSets}
}

// InstrumentWorker is Instrument wired for worker w of a batcher: the
// per-worker sets counter plus the per-worker busy-time counter that
// feeds the live telemetry plane's worker-utilization gauge, plus —
// when the metric set carries a timeline — worker w's interval ring, so
// every generated set leaves a [start,end] record on the worker's
// timeline track. The busy clock is chosen here, once: the timeline's
// lock-free clock when a ring is attached, so busy time and intervals
// share one time base, and ring.WallClock otherwise. Timing each set
// costs two clock reads, which only the batcher's worker loops — where
// a set is a full reverse BFS — opt into; the plain Instrument path
// stays clock-free.
func InstrumentWorker(gen Generator, m *obs.MetricSet, w int) Generator {
	if m == nil {
		return gen
	}
	ig := Instrument(gen, m, m.WorkerSets(w)).(*Instrumented)
	ig.workerBusy = m.WorkerBusyNS(w)
	ig.ring = m.TimelineRing(w)
	if ig.ring != nil {
		ig.clock = ig.ring.Now
	} else {
		ig.clock = ring.WallClock()
	}
	return ig
}

// Generate delegates to the wrapped generator and records the per-set
// deltas of its counters.
func (ig *Instrumented) Generate(r *rng.Source, root int32, sentinel []bool) RRSet {
	before, t0 := ig.gen.Stats(), ig.now()
	set := ig.gen.Generate(r, root, sentinel)
	ig.observe(before, t0, int64(len(set)))
	return set
}

// GenerateInto delegates to the wrapped generator's arena path and
// records the per-set deltas of its counters.
//
//subsim:hotpath
func (ig *Instrumented) GenerateInto(a *Arena, r *rng.Source, root int32, sentinel []bool) []int32 {
	before, t0 := ig.gen.Stats(), ig.now()
	set := ig.gen.GenerateInto(a, r, root, sentinel)
	ig.observe(before, t0, int64(len(set)))
	return set
}

// now reads the busy clock (0 when sets are not timed).
func (ig *Instrumented) now() int64 {
	if ig.clock == nil {
		return 0
	}
	return ig.clock()
}

// observe records one generated set that started at t0: its busy time
// and timeline interval when the set is timed, then the deltas of the
// generator's counters.
func (ig *Instrumented) observe(before Stats, t0, size int64) {
	if ig.clock != nil {
		t1 := ig.clock()
		ig.workerBusy.Add(t1 - t0)
		ig.ring.Record(timeline.PhaseGenerate, t0, t1)
	}
	after := ig.gen.Stats()
	m := ig.m
	edges := after.EdgesExamined - before.EdgesExamined
	m.RRSize.Observe(size)
	m.EdgesPerSet.Observe(edges)
	m.Sets.Inc()
	m.Nodes.Add(size)
	m.Edges.Add(edges)
	if after.SentinelHits > before.SentinelHits {
		m.SentinelHits.Inc()
	}
	ig.workerSets.Inc()
}

// Graph returns the wrapped generator's graph.
func (ig *Instrumented) Graph() *graph.Graph { return ig.gen.Graph() }

// Stats returns the wrapped generator's counters.
func (ig *Instrumented) Stats() Stats { return ig.gen.Stats() }

// ResetStats zeroes the wrapped generator's counters (the metric set is
// cumulative across the run and is left untouched).
func (ig *Instrumented) ResetStats() { ig.gen.ResetStats() }

// Clone wraps a clone of the inner generator against the same metric
// set, worker counters and timeline ring. Ring sharing is safe because a
// clone replaces — never runs beside — its original on the owning
// worker, preserving the ring's single-writer discipline.
func (ig *Instrumented) Clone() Generator {
	c := Instrument(ig.gen.Clone(), ig.m, ig.workerSets).(*Instrumented)
	c.workerBusy = ig.workerBusy
	c.ring = ig.ring
	c.clock = ig.clock
	return c
}

// Unwrap returns the wrapped generator, for callers that need the
// concrete type.
func (ig *Instrumented) Unwrap() Generator { return ig.gen }
