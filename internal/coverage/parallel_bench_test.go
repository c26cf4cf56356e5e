package coverage

import (
	"testing"

	"subsim/internal/rng"
)

// benchSets draws a workload shaped like the 2000-set fill batch of the
// im benchmarks: count sets over 5000 nodes, sizes in [1, 30].
func benchSets(count int) ([][]int32, int) {
	const n = 5000
	r := rng.New(17)
	return randomSets(r, n, count, 30), n
}

// benchSelectGains isolates the first CELF round: SelectSeeds with K=1
// on a warm engine (one shard per worker, as im.NewEstimator builds it)
// is dominated by the initial-gain fill over all n nodes plus the
// heapify, the part the parallel gains pass partitions.
func benchSelectGains(b *testing.B, workers int) {
	b.Helper()
	sets, n := benchSets(20000)
	x := NewSharded(n, nil, workers)
	x.SetWorkers(workers)
	for _, s := range sets {
		x.Add(s)
	}
	x.SelectSeeds(GreedyOptions{K: 1}) // warm shards + selection scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.SelectSeeds(GreedyOptions{K: 1})
	}
}

func BenchmarkSelectGains_W1(b *testing.B) { benchSelectGains(b, 1) }
func BenchmarkSelectGains_W4(b *testing.B) { benchSelectGains(b, 4) }
func BenchmarkSelectGains_W8(b *testing.B) { benchSelectGains(b, 8) }
