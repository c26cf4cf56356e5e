package im

import (
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// benchGraph builds the ER benchmark graph used by the allocation and
// throughput benchmarks of the generate→index hot path.
func benchGraph(b *testing.B, n int, m int64) *graph.Graph {
	b.Helper()
	g, err := graph.GenErdosRenyi(n, m, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	g.AssignWC()
	return g
}

// benchBAGraph builds the preferential-attachment (BA) benchmark graph.
func benchBAGraph(b *testing.B, n, deg int) *graph.Graph {
	b.Helper()
	g, err := graph.GenPreferentialAttachment(n, deg, false, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	g.AssignWC()
	return g
}

// benchFillIndex measures the full generate→index path: sampling setsPer
// RR sets through a Batcher straight into a fresh exact estimator (one
// shard per worker, as the algorithms build it), then forcing the
// inverted index build with a degree probe. This is the hot loop of
// every doubling round in IMM/OPIM-C/SSA/TIM+/HIST.
func benchFillIndex(b *testing.B, gen rrset.Generator, workers, setsPer int) {
	b.Helper()
	n := gen.Graph().N()
	batch := NewBatcher(gen, 42, workers)
	opt := Options{Workers: workers}
	// Warm the worker scratch so steady-state costs are measured.
	idx := NewEstimator(n, nil, opt, nil)
	batch.Fill(idx, setsPer, nil)
	idx.Degree(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := NewEstimator(n, nil, opt, nil)
		batch.Fill(idx, setsPer, nil)
		idx.Degree(0) // force the inverted index build
	}
	b.ReportMetric(float64(setsPer), "sets/op")
}

func BenchmarkFillIndex_Vanilla_W1(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	benchFillIndex(b, rrset.NewVanilla(g), 1, 2000)
}

func BenchmarkFillIndex_Subsim_W1(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	benchFillIndex(b, rrset.NewSubsim(g), 1, 2000)
}

func BenchmarkFillIndex_Subsim_W4(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	benchFillIndex(b, rrset.NewSubsim(g), 4, 2000)
}

func BenchmarkFillIndex_Subsim_W8(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	benchFillIndex(b, rrset.NewSubsim(g), 8, 2000)
}

func BenchmarkFillIndex_BA_Subsim_W1(b *testing.B) {
	g := benchBAGraph(b, 5000, 8)
	benchFillIndex(b, rrset.NewSubsim(g), 1, 2000)
}

func BenchmarkFillIndex_BA_Subsim_W8(b *testing.B) {
	g := benchBAGraph(b, 5000, 8)
	benchFillIndex(b, rrset.NewSubsim(g), 8, 2000)
}

// BenchmarkGenerateSingle measures a single-set Generate through the
// caller-owned compatibility path (the ISSUE acceptance gate: no ns/op
// regression for single-set Generate).
func BenchmarkGenerateSingle_Subsim(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	gen := rrset.NewSubsim(g)
	r := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rrset.GenerateRandom(gen, r, nil)
	}
}

// benchSelect measures greedy CELF selection over a realistic RR
// collection in the exact estimator at the given worker count (one
// shard per worker): beyond the first round, every round's
// marginal-gain reduce and covered-bit update fans out across the
// shards once a node's posting mass warrants it.
func benchSelect(b *testing.B, workers int) {
	b.Helper()
	g := benchGraph(b, 5000, 40000)
	batch := NewBatcher(rrset.NewSubsim(g), 42, workers)
	idx := NewEstimator(g.N(), nil, Options{Workers: workers}, nil)
	batch.Fill(idx, 20000, nil)
	idx.Degree(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.SelectSeeds(coverage.GreedyOptions{K: 50})
	}
}

// BenchmarkSelectSeeds_Subsim is the serial (W=1) selection benchmark and
// the baseline of BenchmarkShardedSelectSeeds_W4/W8.
func BenchmarkSelectSeeds_Subsim(b *testing.B)    { benchSelect(b, 1) }
func BenchmarkShardedSelectSeeds_W4(b *testing.B) { benchSelect(b, 4) }
func BenchmarkShardedSelectSeeds_W8(b *testing.B) { benchSelect(b, 8) }

// BenchmarkOPIMC_E2E measures an end-to-end OPIM-C run with SUBSIM
// generation on the ER benchmark graph.
func BenchmarkOPIMC_E2E_Subsim(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := rrset.NewSubsim(g)
		if _, err := OPIMC(gen, Options{K: 20, Eps: 0.3, Seed: 9, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
