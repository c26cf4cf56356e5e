// Package obs is the repository's dependency-free observability layer:
// phase spans, low-overhead metrics, structured run logging, and
// machine-readable run reports.
//
// The paper's headline claims are cost claims — SUBSIM's edge-examination
// count (Lemma 4) and HIST's average-RR-size reduction (Figure 3b) — so
// the algorithms need visibility into where time and samples go: per
// doubling round, per HIST phase and per worker. This package provides
// four pieces:
//
//   - Tracer / Span: nested, timestamped phase spans ("sampling",
//     "selection", "bound-check", "sentinel-phase", "residual-phase",
//     one span per doubling round) with attached key/value attributes.
//   - MetricSet: atomic counters, gauges and fixed-bucket power-of-two
//     histograms (RR sets, nodes, edge examinations and sentinel hits,
//     per-worker sets generated and busy time, index-build durations,
//     live certified bounds). im.Batcher feeds the RR counters once per
//     worker lane per batch, from the generators' own Stats.
//   - Run: the per-run recorder (see run.go). Each run event — start,
//     θ budget, round, bound crossing, phase end, run end — is one call
//     that writes the span attributes, MetricSet gauges and slog record
//     it projects to.
//   - Report: a schema-versioned JSON run report (see report.go) and a
//     Prometheus-style text dump (see prom.go). The live HTTP telemetry
//     plane over all of the above lives in the obs/serve subpackage.
//
// # The nil-tracer zero-overhead contract
//
// Every method of Tracer, Span, Counter, Gauge and Histogram is safe to
// call on a nil receiver and is a no-op there, and a Run started on a
// nil tracer and a nil logger allocates nothing. A nil *Tracer
// therefore threads through im.Options at zero cost: span creation
// returns nil without allocating, attribute setters return immediately,
// and a batcher built over a nil MetricSet reads no clock and reports
// nothing. Instrumented code never needs an "is tracing enabled?"
// branch of its own, and the RR generators contain no observability
// code at all.
//
// # Live reads and memory ordering
//
// Spans are written by exactly one goroutine — the single-goroutine
// coordinator loop of each algorithm — but may be *read* concurrently
// and lock-free by the live telemetry plane (obs/serve's /progress and
// /report endpoints) while the run is still in flight. The contract:
//
//   - name and startNS are immutable after the span is published.
//   - endNS is an atomic: writers Store it once in End, readers Load it
//     (0 means "still open").
//   - attrs and children are atomic.Pointer slices updated copy-on-write
//     by the single writer: the writer builds a new slice, then publishes
//     it with an atomic Store (release); readers Load (acquire) and never
//     mutate what they see. The slice contents are therefore immutable
//     once published, and a reader sees a fully initialised child because
//     the child's fields are written before the pointer store.
//   - the root-span list is guarded by the tracer mutex; LiveSpans copies
//     it under the lock and then walks the tree lock-free.
//
// MetricSet instruments are concurrent (atomic, or mutex-guarded for
// the per-worker totals) and shared by all workers.
package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value attachment on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed phase of a run. Spans nest: obtain children with
// Child. All methods are nil-safe no-ops, so code instrumented against a
// nil Tracer pays nothing. A span is mutated by one goroutine only but
// may be read concurrently — see the package comment's memory-ordering
// contract.
type Span struct {
	tracer  *Tracer
	name    string
	startNS int64        // nanos since the tracer epoch; immutable
	endNS   atomic.Int64 // 0 while the span is open

	attrs    atomic.Pointer[[]Attr]
	children atomic.Pointer[[]*Span]
}

// Tracer records a tree of spans plus a MetricSet for one run. Construct
// with NewTracer; the zero value is not usable, but a nil *Tracer is a
// valid "tracing disabled" instance for every method.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	clock   func() int64 // nanos since epoch; injectable for tests
	roots   []*Span
	meta    map[string]any
	metrics *MetricSet
}

// NewTracer returns an enabled tracer with a fresh MetricSet.
func NewTracer() *Tracer {
	t := &Tracer{
		epoch:   time.Now(),
		metrics: NewMetricSet(),
		meta:    map[string]any{},
	}
	t.clock = func() int64 { return int64(time.Since(t.epoch)) }
	return t
}

// SetClock replaces the span clock with fn (nanoseconds since the trace
// epoch). It exists so tests can produce deterministic reports.
func (t *Tracer) SetClock(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = fn
	t.mu.Unlock()
}

// Metrics returns the tracer's metric set, or nil for a nil tracer —
// which in turn disables every instrument handed out downstream.
func (t *Tracer) Metrics() *MetricSet {
	if t == nil {
		return nil
	}
	return t.metrics
}

// SetMeta attaches a run-level key/value to the report ("algorithm",
// "graph_n", ...).
func (t *Tracer) SetMeta(key string, value any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta[key] = value
	t.mu.Unlock()
}

// MetaSnapshot copies the run-level metadata (nil for a nil tracer or
// when no metadata was set).
func (t *Tracer) MetaSnapshot() map[string]any {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.meta) == 0 {
		return nil
	}
	out := make(map[string]any, len(t.meta))
	for k, v := range t.meta {
		out[k] = v
	}
	return out
}

func (t *Tracer) now() int64 {
	t.mu.Lock()
	fn := t.clock
	t.mu.Unlock()
	return fn()
}

// Span opens a new root-level span. End it with Span.End. Returns nil
// (allocation-free) on a nil tracer.
func (t *Tracer) Span(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, name: name, startNS: t.now()}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Child opens a nested span under s. Returns nil on a nil span, so
// chains rooted in a nil tracer stay allocation-free. Child must be
// called from the span's owning goroutine (the single writer).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, name: name, startNS: s.tracer.now()}
	// Copy-on-write append: build the new slice fully, then publish it
	// with one atomic store so lock-free readers never observe a
	// half-appended list.
	old := s.children.Load()
	var next []*Span
	if old == nil {
		next = []*Span{c}
	} else {
		next = make([]*Span, len(*old)+1)
		copy(next, *old)
		next[len(*old)] = c
	}
	s.children.Store(&next)
	return c
}

// End closes the span. Ending an already-ended span keeps the first end
// time. Spans still open when the report is built are closed at report
// time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endNS.CompareAndSwap(0, s.tracer.now())
}

// Name returns the span name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr attaches a key/value to the span and returns s for chaining.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	old := s.attrs.Load()
	var next []Attr
	if old == nil {
		next = []Attr{{Key: key, Value: value}}
	} else {
		next = make([]Attr, len(*old)+1)
		copy(next, *old)
		next[len(*old)] = Attr{Key: key, Value: value}
	}
	s.attrs.Store(&next)
	return s
}

// SetInt attaches an integer attribute. The argument is a plain int64 so
// the call is allocation-free on a nil span.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	return s.SetAttr(key, v)
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	return s.SetAttr(key, v)
}

// liveAttrs returns the currently published attribute slice (read-only).
func (s *Span) liveAttrs() []Attr {
	if p := s.attrs.Load(); p != nil {
		return *p
	}
	return nil
}

// liveChildren returns the currently published child slice (read-only).
func (s *Span) liveChildren() []*Span {
	if p := s.children.Load(); p != nil {
		return *p
	}
	return nil
}

// liveRoots copies the root-span list under the tracer lock; the
// returned slice is safe to walk lock-free.
func (t *Tracer) liveRoots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.roots))
	copy(out, t.roots)
	return out
}

// roundNames caches the common doubling-round span names so per-round
// instrumentation allocates nothing even when tracing is on.
var roundNames = func() [64]string {
	var a [64]string
	for i := range a {
		a[i] = "round-" + strconv.Itoa(i)
	}
	return a
}()

// Round returns the canonical span name for doubling round i
// ("round-1", "round-2", ...), allocation-free for i < 64.
func Round(i int) string {
	if i >= 0 && i < len(roundNames) {
		return roundNames[i]
	}
	return "round-" + strconv.Itoa(i)
}
