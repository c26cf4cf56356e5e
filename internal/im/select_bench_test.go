package im

import (
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// selectShape is one SelectSeeds workload: SUBSIM sets on a 100k-node
// directed preferential-attachment graph, drawn once and selected over
// repeatedly.
type selectShape struct {
	name     string
	wcvTheta float64 // WC-variant constant; 0 assigns plain WC weights
	sets     int
	k        int
	workers  int // also the shard count, as NewEstimator builds it
	revised  bool
}

// selectShapes are the two shapes where selection dominates a certified
// run: OPIM-C's k=2000, two-worker selection over R₁ (about 113k lazy
// refreshes per call), and HIST's Revised-Greedy selection at k=200 over
// WC-variant sets of about 1000 nodes each (about 116k refreshes).
var selectShapes = []selectShape{
	{name: "bigk-w2", sets: 143360, k: 2000, workers: 2},
	{name: "hist-wcv-revised", wcvTheta: 1.146, sets: 8192, k: 200, workers: 1, revised: true},
}

// selectEstimator draws s.sets RR sets into a fresh exact estimator and
// warms it with one selection, so the shard CSRs and the selection
// scratch are built before timing starts.
func selectEstimator(b *testing.B, s selectShape) (*coverage.Sharded, coverage.GreedyOptions) {
	b.Helper()
	g, err := graph.GenPreferentialAttachment(100000, 8, false, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	if s.wcvTheta > 0 {
		g.AssignWCVariant(s.wcvTheta)
	} else {
		g.AssignWC()
	}
	gen := rrset.NewSubsim(g)
	var outDeg []int32
	if s.revised {
		outDeg = OutDegrees(gen)
	}
	est := NewEstimator(g.N(), outDeg, Options{Workers: s.workers}, nil)
	NewBatcher(gen, 42, s.workers).Fill(est, s.sets, nil)
	opt := coverage.GreedyOptions{K: s.k, Revised: s.revised}
	est.SelectSeeds(opt)
	return est, opt
}

// BenchmarkSelectSeeds times warm SelectSeeds calls alone — no sampling
// and no CSR rebuild — so a change to selection can be measured without
// the run-to-run noise of a whole certified run. Each shape's graph and
// sets are built once, however many times the benchmark is probed.
func BenchmarkSelectSeeds(b *testing.B) {
	for _, s := range selectShapes {
		var est *coverage.Sharded
		var opt coverage.GreedyOptions
		b.Run(s.name, func(b *testing.B) {
			if est == nil {
				est, opt = selectEstimator(b, s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = est.SelectSeeds(opt)
			}
		})
	}
}
