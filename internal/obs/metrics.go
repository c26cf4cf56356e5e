package obs

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops so disabled instrumentation threads through for free.
type Counter struct {
	v atomic.Int64
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value (latest-wins) for live
// progress signals such as the certified bounds. All methods are
// nil-safe no-ops; the zero value reads as 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// IntGauge is an atomically settable int64 value (latest-wins), used for
// "current round" style progress. All methods are nil-safe no-ops.
type IntGauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *IntGauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current value (0 for a nil gauge).
func (g *IntGauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the fixed bucket count of Histogram: bucket 0 holds
// values <= 0, bucket i (1 <= i < NumBuckets-1) holds values in
// [2^(i-1), 2^i), and the last bucket absorbs everything from
// 2^(NumBuckets-2) upward.
const NumBuckets = 40

// Histogram is a fixed-bucket power-of-two histogram. Observe costs one
// bits.Len plus three uncontended atomic adds. The zero value is ready
// to use; a nil *Histogram is a no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketIndex maps a value to its bucket: 0 for v <= 0, bits.Len64(v)
// (i.e. [2^(i-1), 2^i) -> i) clamped to the overflow bucket otherwise.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i > NumBuckets-1 {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i: 0 for
// bucket 0, 2^i-1 for the middle buckets, and +Inf (represented as -1)
// for the overflow bucket. Exported for exporters and tests.
func BucketUpper(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= NumBuckets-1:
		return -1 // +Inf
	default:
		return int64(1)<<uint(i) - 1
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the count of bucket i (0 when out of range or nil).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= NumBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// BucketCount is one non-empty histogram bucket in a snapshot. Le is the
// inclusive upper bound of the bucket; -1 encodes +Inf (the overflow
// bucket).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram with only its
// non-empty buckets, suitable for JSON reports.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram. The result of a concurrent snapshot is
// a consistent-enough view for reporting (buckets are read one by one).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := 0; i < NumBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Le: BucketUpper(i), Count: n})
		}
	}
	return s
}

// MetricSet bundles the well-known RR-generation instruments. All
// instruments are concurrency-safe; the set is shared by every worker of
// a run. Access the fields directly from instrumented code (after a
// single nil check on the set), or via the nil-safe accessors.
type MetricSet struct {
	// Sets, Nodes and Edges are running totals across all workers:
	// Nodes/Sets is Figure 3b's average RR set size and Edges/Sets the
	// Lemma 4 cost per set. im.Batcher adds to them once per worker lane
	// per batch (AddBatch), so they advance per batch, not per set.
	Sets  Counter
	Nodes Counter
	Edges Counter
	// SentinelHits counts RR sets truncated by a sentinel node.
	SentinelHits Counter
	// IndexBuild observes the wall-clock nanoseconds of each CSR
	// inverted-index (re)build in coverage.Sharded (all paths).
	IndexBuild Histogram
	// IndexBuildSerial and IndexBuildParallel split IndexBuild by the
	// build path taken: every dirty shard rebuilt on the calling
	// goroutine vs the shards fanned out across worker lanes. Their
	// counts sum to IndexBuild's, so the parallel-path hit rate is
	// directly readable.
	IndexBuildSerial   Histogram
	IndexBuildParallel Histogram
	// IndexEntries counts the postings (node→set pairs) placed by CSR
	// index builds; with Nodes it yields the indexing amplification.
	IndexEntries Counter

	// Lower, Upper and Approx are the live certified bounds (Equations
	// 1/2) as of the most recent round, published by Run.Round through
	// SetBounds so the /progress endpoint can watch them tighten mid-run.
	// Round is the doubling round that produced them.
	Lower  Gauge
	Upper  Gauge
	Approx Gauge
	Round  IntGauge

	// ThetaWorst is the worst-case RR sample budget θ_max of the
	// current run, published by Run.Theta through SetTheta.
	ThetaWorst IntGauge

	// mu guards the per-worker totals, indexed by worker: RR sets
	// generated and nanoseconds spent generating them. They change once
	// per worker lane per batch, so a lock costs nothing measurable.
	mu         sync.Mutex
	workerSets []int64
	workerBusy []int64
}

// NewMetricSet returns an empty, enabled metric set.
func NewMetricSet() *MetricSet { return &MetricSet{} }

// AddBatch records worker w's lane of one batch of RR generation: sets
// RR sets of nodes nodes in all, edges edge examinations, hits sets
// truncated by a sentinel, and busyNS nanoseconds of generation. It is
// the one entry point of the RR counters and the per-worker totals;
// im.Batcher calls it once per lane per batch. Nil-safe.
func (m *MetricSet) AddBatch(w int, sets, nodes, edges, hits, busyNS int64) {
	if m == nil {
		return
	}
	m.Sets.Add(sets)
	m.Nodes.Add(nodes)
	m.Edges.Add(edges)
	m.SentinelHits.Add(hits)
	m.mu.Lock()
	for len(m.workerSets) <= w {
		m.workerSets = append(m.workerSets, 0)
		m.workerBusy = append(m.workerBusy, 0)
	}
	m.workerSets[w] += sets
	m.workerBusy[w] += busyNS
	m.mu.Unlock()
}

// WorkerSnapshot returns the per-worker sets-generated totals (nil
// before any batch was recorded).
func (m *MetricSet) WorkerSnapshot() []int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.workerSets)
}

// WorkerBusySnapshot returns the per-worker generation nanoseconds (nil
// before any batch was recorded); busy ns over wall-clock time is a
// worker's sampling utilization.
func (m *MetricSet) WorkerBusySnapshot() []int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.workerBusy)
}

// SetBounds publishes the latest certified bounds and the round that
// produced them (Run.Round is the one caller); the live /progress
// endpoint reads them back. Nil-safe, allocation-free: four atomic
// stores. Round is stored last so a reader that observes round i sees
// bounds from round i or newer — never a fresh round number over stale
// bounds (the ordering contract documented in DESIGN.md "Live telemetry
// plane").
func (m *MetricSet) SetBounds(round int, lower, upper, approx float64) {
	if m == nil {
		return
	}
	m.Lower.Set(lower)
	m.Upper.Set(upper)
	m.Approx.Set(approx)
	m.Round.Set(int64(round))
}

// SetTheta publishes the run's worst-case RR sample budget (Run.Theta is
// the one caller). Nil-safe, allocation-free: one atomic store.
func (m *MetricSet) SetTheta(worst int64) {
	if m == nil {
		return
	}
	m.ThetaWorst.Set(worst)
}
