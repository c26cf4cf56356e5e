package im

import (
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// TestFillDispatchesExact pins the fill path: NewEstimator builds the
// sharded engine with one shard per worker, Batcher.Fill generates
// straight into every shard arena, and the result is byte-identical to
// the single-shard workers=1 reference — same seeds, same bounds — for
// every generator kind and worker count.
func TestFillDispatchesExact(t *testing.T) {
	const (
		count = 1200
		k     = 8
		seed  = 77
	)
	for _, c := range equivCases(t) {
		t.Run(c.name, func(t *testing.T) {
			refGen := c.gen()
			n := refGen.Graph().N()
			refB := NewBatcher(refGen, seed, 1)
			refIdx := coverage.NewSharded(n, nil, 1)
			mustFill(t, refB, refIdx, count, nil)
			refSel := refIdx.SelectSeeds(coverage.GreedyOptions{K: k})
			for _, workers := range []int{1, 2, 8} {
				b := NewBatcher(c.gen(), seed, workers)
				est := NewEstimator(n, nil, Options{Workers: workers}, nil)
				if hits := mustFill(t, b, est, count, nil); hits != 0 {
					t.Fatalf("workers=%d: unexpected sentinel hits %d", workers, hits)
				}
				if est.Workers() != workers || est.NumShards() != workers {
					t.Fatalf("workers=%d: estimator has %d workers, %d shards", workers, est.Workers(), est.NumShards())
				}
				for s := 0; s < workers; s++ {
					if est.ShardArena(s).Len() == 0 {
						t.Fatalf("workers=%d: shard %d received no sets", workers, s)
					}
				}
				sel := est.SelectSeeds(coverage.GreedyOptions{K: k})
				if len(sel.Seeds) != len(refSel.Seeds) {
					t.Fatalf("workers=%d: %d seeds, want %d", workers, len(sel.Seeds), len(refSel.Seeds))
				}
				for i := range sel.Seeds {
					if sel.Seeds[i] != refSel.Seeds[i] {
						t.Fatalf("workers=%d: seed %d is %d, want %d",
							workers, i, sel.Seeds[i], refSel.Seeds[i])
					}
				}
				if sel.TotalCoverage(0) != refSel.TotalCoverage(0) || sel.CoverageUpper != refSel.CoverageUpper {
					t.Fatalf("workers=%d: coverage %d/%d, want %d/%d", workers,
						sel.TotalCoverage(0), sel.CoverageUpper,
						refSel.TotalCoverage(0), refSel.CoverageUpper)
				}
			}
		})
	}
}

// estimatorTestGraph builds the property-test graph shared by the
// backend-accuracy tests.
func estimatorTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferentialAttachment(1000, 5, false, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	return g
}

// TestAlgorithmsRunOnEveryChassis smokes every algorithm chassis: valid
// seeds, sane influence, and a reported sample budget.
func TestAlgorithmsRunOnEveryChassis(t *testing.T) {
	g := estimatorTestGraph(t)
	opt := Options{K: 5, Eps: 0.35, Seed: 7, Workers: 2}
	algs := map[string]func(rrset.Generator, Options) (*Result, error){
		"opimc": OPIMC, "imm": IMM, "ssa": SSA, "timplus": TIMPlus,
	}
	for name, run := range algs {
		t.Run(name, func(t *testing.T) {
			res, err := run(rrset.NewSubsim(g), opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Seeds) != opt.K {
				t.Fatalf("%d seeds, want %d", len(res.Seeds), opt.K)
			}
			if res.Influence <= 0 || res.Influence > float64(g.N()) {
				t.Fatalf("influence %v out of range", res.Influence)
			}
			if res.ThetaWorstCase < 1 {
				t.Fatalf("sample budget not reported: worst %d", res.ThetaWorstCase)
			}
		})
	}
}
