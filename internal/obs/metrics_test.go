package obs

import (
	"math"
	"sync"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, // bucket 0: v <= 0
		{1, 1},         // [1,2)
		{2, 2}, {3, 2}, // [2,4)
		{4, 3}, {7, 3}, // [4,8)
		{8, 4},              // [8,16)
		{1 << 37, 38},       // [2^37, 2^38)
		{1<<38 - 1, 38},     // last middle bucket
		{1 << 38, 39},       // overflow
		{math.MaxInt64, 39}, // clamped to overflow
		{1<<62 + 12345, 39}, // deep overflow still clamps
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if BucketUpper(0) != 0 {
		t.Errorf("BucketUpper(0) = %d, want 0", BucketUpper(0))
	}
	if BucketUpper(1) != 1 {
		t.Errorf("BucketUpper(1) = %d, want 1", BucketUpper(1))
	}
	if BucketUpper(3) != 7 {
		t.Errorf("BucketUpper(3) = %d, want 7", BucketUpper(3))
	}
	if BucketUpper(NumBuckets-1) != -1 {
		t.Errorf("BucketUpper(last) = %d, want -1 (+Inf)", BucketUpper(NumBuckets-1))
	}
	// Boundary consistency: every value lands in a bucket whose upper
	// bound is >= the value (with -1 meaning +Inf).
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1 << 20, 1 << 39} {
		i := bucketIndex(v)
		ub := BucketUpper(i)
		if ub >= 0 && v > ub {
			t.Errorf("value %d in bucket %d exceeds upper bound %d", v, i, ub)
		}
		if i > 0 {
			if lb := BucketUpper(i - 1); v <= lb {
				t.Errorf("value %d in bucket %d not above previous bound %d", v, i, lb)
			}
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(0)       // bucket 0
	h.Observe(1)       // bucket 1
	h.Observe(3)       // bucket 2
	h.Observe(1 << 50) // overflow bucket
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if want := int64(0 + 1 + 3 + 1<<50); h.Sum() != want {
		t.Errorf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.Bucket(0) != 1 || h.Bucket(1) != 1 || h.Bucket(2) != 1 || h.Bucket(NumBuckets-1) != 1 {
		t.Errorf("bucket counts wrong: %d %d %d %d",
			h.Bucket(0), h.Bucket(1), h.Bucket(2), h.Bucket(NumBuckets-1))
	}
	snap := h.Snapshot()
	if snap.Count != 4 || len(snap.Buckets) != 4 {
		t.Errorf("snapshot = %+v, want count 4 over 4 non-empty buckets", snap)
	}
	if last := snap.Buckets[len(snap.Buckets)-1]; last.Le != -1 || last.Count != 1 {
		t.Errorf("overflow snapshot bucket = %+v, want {-1 1}", last)
	}
}

func TestNilMetrics(t *testing.T) {
	var c *Counter
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter Load != 0")
	}
	var h *Histogram
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 || h.Bucket(1) != 0 {
		t.Error("nil histogram accessors not zero")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Buckets != nil {
		t.Error("nil histogram snapshot not empty")
	}
	var m *MetricSet
	m.AddBatch(3, 1, 2, 3, 1, 5) // must not panic
	if m.WorkerSnapshot() != nil || m.WorkerBusySnapshot() != nil {
		t.Error("nil metric set worker snapshots != nil")
	}
	if err := m.WritePrometheus(nil); err != nil {
		t.Errorf("nil metric set WritePrometheus: %v", err)
	}
}

// TestConcurrentInstruments hammers the shared instruments from many
// goroutines, workers reporting batches in descending order so the
// per-worker vectors grow while others add to them; run under -race
// this validates the atomic and mutex-guarded design.
func TestConcurrentInstruments(t *testing.T) {
	m := NewMetricSet()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := workers - 1; w >= 0; w-- {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.AddBatch(w, 1, 3, 5, int64(i%2), 7)
				m.IndexBuild.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := m.Sets.Load(); got != workers*per {
		t.Errorf("Sets = %d, want %d", got, workers*per)
	}
	if got := m.Nodes.Load(); got != workers*per*3 {
		t.Errorf("Nodes = %d, want %d", got, workers*per*3)
	}
	if got := m.Edges.Load(); got != workers*per*5 {
		t.Errorf("Edges = %d, want %d", got, workers*per*5)
	}
	if got := m.SentinelHits.Load(); got != workers*per/2 {
		t.Errorf("SentinelHits = %d, want %d", got, workers*per/2)
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += m.IndexBuild.Bucket(i)
	}
	if cum != workers*per {
		t.Errorf("bucket counts sum to %d, want %d", cum, workers*per)
	}
	ws, busy := m.WorkerSnapshot(), m.WorkerBusySnapshot()
	if len(ws) != workers || len(busy) != workers {
		t.Fatalf("worker vectors have %d/%d entries, want %d", len(ws), len(busy), workers)
	}
	for w := range ws {
		if ws[w] != per || busy[w] != 7*per {
			t.Errorf("worker %d sets=%d busy=%d, want %d/%d", w, ws[w], busy[w], per, 7*per)
		}
	}
}
