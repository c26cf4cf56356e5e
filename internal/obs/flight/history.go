package flight

import (
	"encoding/json"
	"io"
	"math"
	rtm "runtime/metrics"
	"sync"
	"time"

	"subsim/internal/obs/ring"
)

// floatBits / bitsFloat move float payloads through atomic.Uint64 words.
func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// historySeries are the runtime/metrics series the History sampler keeps
// as bounded time series — the same scalars the live /metrics endpoint
// scrapes (see obs/serve), plus p99 summaries of the two cumulative
// runtime distributions (GC pause, scheduler latency). Histogram series
// are cumulative since process start, so their quantiles describe the
// whole run up to each sample — exactly the post-mortem view a bundle
// wants.
var historySeries = []struct {
	name     string  // stable series name used in exports
	key      string  // runtime/metrics name
	quantile float64 // >0: read a Float64Histogram quantile
	scale    float64 // multiply the value (seconds→ns for durations)
}{
	{name: "goroutines", key: "/sched/goroutines:goroutines"},
	{name: "heap_objects_bytes", key: "/memory/classes/heap/objects:bytes"},
	{name: "memory_total_bytes", key: "/memory/classes/total:bytes"},
	{name: "gc_cycles_total", key: "/gc/cycles/total:gc-cycles"},
	{name: "gc_pause_p99_ns", key: "/gc/pauses:seconds", quantile: 0.99, scale: 1e9},
	{name: "sched_latency_p99_ns", key: "/sched/latencies:seconds", quantile: 0.99, scale: 1e9},
}

// DefaultHistoryCapacity is the capacity of every history the tracer
// enables, and of NewHistory handed a non-positive one: ~8.5 minutes of
// samples at the default 250 ms cadence; older samples fall off the
// ring, keeping the recorder bounded no matter how long the run.
const DefaultHistoryCapacity = 1 << 11

// HistorySample is one exported sampler reading: the values of every
// series at one instant.
type HistorySample struct {
	TimeNS int64     `json:"time_ns"`
	Values []float64 `json:"values"`
}

// History is a fixed-capacity ring of runtime/metrics samples with
// exactly one writing goroutine (the Sampler, or a test calling Sample
// directly). Each sample is 1+len(historySeries) payload words of an
// internal/obs/ring seqlock ring — the time, then the bits of each
// series value — so export reads are lock-free. A nil History is the
// disabled instrument.
type History struct {
	clock   func() int64
	buf     *ring.Ring
	scratch []rtm.Sample // owned by the writer; reused every Sample
	values  []float64    // owned by the writer; reused every Sample
	payload []uint64     // owned by the writer; reused every Sample
}

// NewHistory returns a history ring holding capacity samples (rounded up
// to a power of two; non-positive means DefaultHistoryCapacity). clock
// supplies nanosecond timestamps (nil installs ring.WallClock).
func NewHistory(capacity int, clock func() int64) *History {
	if clock == nil {
		clock = ring.WallClock()
	}
	h := &History{
		clock:   clock,
		buf:     ring.New(ring.Capacity(capacity, DefaultHistoryCapacity), 1+len(historySeries)),
		scratch: make([]rtm.Sample, len(historySeries)),
		values:  make([]float64, len(historySeries)),
		payload: make([]uint64, 1+len(historySeries)),
	}
	for i := range historySeries {
		h.scratch[i].Name = historySeries[i].key
	}
	return h
}

// SeriesNames returns the stable series names, index-aligned with
// HistorySample.Values (nil for a nil history).
func (h *History) SeriesNames() []string {
	if h == nil {
		return nil
	}
	names := make([]string, len(historySeries))
	for i := range historySeries {
		names[i] = historySeries[i].name
	}
	return names
}

// Written returns the total number of samples ever recorded (0 for nil).
func (h *History) Written() uint64 {
	if h == nil {
		return 0
	}
	return h.buf.Written()
}

// Sample reads runtime/metrics and records one ring entry. Must only be
// called from the single writing goroutine. Allocation-free in steady
// state: the runtime/metrics scratch (including histogram buffers, which
// rtm.Read reuses in place) and the value vector are owned by the writer
// and recycled every call. Nil-safe no-op.
func (h *History) Sample() {
	if h == nil {
		return
	}
	rtm.Read(h.scratch)
	for i, s := range h.scratch {
		def := historySeries[i]
		var v float64
		switch s.Value.Kind() {
		case rtm.KindUint64:
			v = float64(s.Value.Uint64())
		case rtm.KindFloat64:
			v = s.Value.Float64()
		case rtm.KindFloat64Histogram:
			v = histQuantile(s.Value.Float64Histogram(), def.quantile)
		default:
			// KindBad: unknown key on this runtime — record zero.
		}
		if def.scale != 0 {
			v *= def.scale
		}
		h.values[i] = v
	}
	h.record(h.clock(), h.values)
}

// record encodes one sample into the writer's payload scratch and
// writes it (split from Sample so tests can drive the ring with
// synthetic values).
func (h *History) record(timeNS int64, values []float64) {
	h.payload[0] = uint64(timeNS)
	for i, v := range values {
		h.payload[1+i] = floatBits(v)
	}
	h.buf.Write(h.payload...)
}

// HistorySnapshot is the exported time-series view: the series names
// plus every readable sample, ascending by time.
type HistorySnapshot struct {
	Series  []string        `json:"series"`
	Written int64           `json:"written"`
	Dropped int64           `json:"dropped"`
	Samples []HistorySample `json:"samples"`
}

// Snapshot walks the ring lock-free and returns the readable samples in
// write order (which is time order for a monotone clock). Torn or lapped
// slots are counted in Dropped and never emitted. Zero value on nil.
func (h *History) Snapshot() HistorySnapshot {
	var snap HistorySnapshot
	if h == nil {
		return snap
	}
	snap.Series = h.SeriesNames()
	snap.Samples = make([]HistorySample, 0, min(int(h.buf.Written()), h.buf.Cap()))
	written, dropped := h.buf.Read(func(_ uint64, p []uint64) {
		sample := HistorySample{TimeNS: int64(p[0]), Values: make([]float64, len(p)-1)}
		for k := range sample.Values {
			sample.Values[k] = bitsFloat(p[1+k])
		}
		snap.Samples = append(snap.Samples, sample)
	})
	snap.Written, snap.Dropped = int64(written), dropped
	return snap
}

// HistorySchema / HistoryVersion identify the metrics-history JSON
// document written into diagnostic bundles.
const (
	HistorySchema  = "subsim.flight-history"
	HistoryVersion = 1
)

type historyDoc struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	HistorySnapshot
}

// WriteJSON writes the schema-versioned history document as indented
// JSON. Nil histories write an empty, still-valid document.
func (h *History) WriteJSON(w io.Writer) error {
	doc := historyDoc{Schema: HistorySchema, Version: HistoryVersion, HistorySnapshot: h.Snapshot()}
	if doc.Series == nil {
		doc.Series = []string{}
	}
	if doc.Samples == nil {
		doc.Samples = []HistorySample{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// histQuantile reads the q-quantile of a runtime/metrics histogram: the
// upper edge of the first bucket whose cumulative count reaches q of the
// total (0 for an empty histogram). Infinite edges fall back to the
// nearest finite boundary so the result is always a usable number.
func histQuantile(hist *rtm.Float64Histogram, q float64) float64 {
	if hist == nil || len(hist.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range hist.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, c := range hist.Counts {
		cum += c
		if c > 0 && cum > target {
			hi := hist.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return hist.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// Sampler drives a History from its own goroutine at a fixed cadence.
// Construct with StartSampler; Stop is idempotent and waits for the
// goroutine to exit, after which the caller may Sample directly (e.g.
// one final sample while writing a bundle).
type Sampler struct {
	h    *History
	tick *time.Ticker
	once sync.Once
	stop chan struct{}
	done chan struct{}
}

// StartSampler takes an immediate first sample, then samples every
// `every` (non-positive picks 250 ms) until Stop. Returns nil on a nil
// history, keeping the disabled path free.
func (h *History) StartSampler(every time.Duration) *Sampler {
	if h == nil {
		return nil
	}
	if every <= 0 {
		every = 250 * time.Millisecond
	}
	s := &Sampler{
		h:    h,
		tick: time.NewTicker(every),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	h.Sample()
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				return
			case <-s.tick.C:
				h.Sample()
			}
		}
	}()
	return s
}

// Stop halts the sampling goroutine and waits for it to exit. Nil-safe
// and idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
	s.tick.Stop()
}
