package coverage

import (
	"testing"

	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// estimatorCase is one engine shape under conformance test.
type estimatorCase struct {
	name string
	make func(n int, outDeg []int32) *Sharded
}

// conformanceCases enumerates the exact engine at two shard counts: the
// serial S=1 engine ("exact") and S=3 ("sharded"), a shard count
// different from every tested worker count, so any accidental
// shard/worker coupling would show up.
func conformanceCases() []estimatorCase {
	return []estimatorCase{
		{
			name: "exact",
			make: func(n int, outDeg []int32) *Sharded { return NewSharded(n, outDeg, 1) },
		},
		{
			name: "sharded",
			make: func(n int, outDeg []int32) *Sharded { return NewSharded(n, outDeg, 3) },
		},
	}
}

// TestEstimatorConformance drives every engine shape through the same
// append/query schedule and checks the whole contract: bookkeeping (N,
// NumSets, Workers clamp), exact counts against brute
// force, and picks, coverages and upper bound identical to the serial
// S=1 engine's.
func TestEstimatorConformance(t *testing.T) {
	const n = 120
	r := rng.New(17)
	sets := randomSets(r, n, 900, 8)
	outDeg := make([]int32, n)
	for v := range outDeg {
		outDeg[v] = int32(r.Intn(30))
	}
	exactRes := shardedFromSets(n, 1, outDeg, sets).SelectSeeds(GreedyOptions{K: 8})

	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.make(n, outDeg)
			if e.N() != n {
				t.Fatalf("N() = %d, want %d", e.N(), n)
			}
			e.SetWorkers(0)
			if e.Workers() != 1 {
				t.Fatalf("SetWorkers(0) leaves Workers() = %d, want clamp to 1", e.Workers())
			}
			e.SetWorkers(4)
			if e.Workers() != 4 {
				t.Fatalf("Workers() = %d, want 4", e.Workers())
			}

			for i, s := range sets {
				e.Add(rrset.RRSet(s))
				if e.NumSets() != i+1 {
					t.Fatalf("NumSets = %d after %d adds", e.NumSets(), i+1)
				}
			}

			// Count accuracy: per-node degrees and multi-seed coverage.
			for v := int32(0); v < n; v++ {
				want := bruteCoverage(sets, []int32{v})
				if got := int64(e.Degree(v)); got != want {
					t.Fatalf("Degree(%d) = %d, want %d", v, got, want)
				}
			}
			for _, seeds := range [][]int32{{0}, {3, 50, 90}, {1, 2, 3, 4, 5, 6, 7, 8}} {
				want := bruteCoverage(sets, seeds)
				if got := e.CoverageOf(seeds); got != want {
					t.Fatalf("CoverageOf(%v) = %d, want %d", seeds, got, want)
				}
			}
			// Selection: the same picks, coverages and upper bound as the
			// serial engine at any shard count.
			res := e.SelectSeeds(GreedyOptions{K: 8})
			if len(res.Seeds) != 8 {
				t.Fatalf("SelectSeeds returned %d seeds, want 8", len(res.Seeds))
			}
			for i := range exactRes.Seeds {
				if res.Seeds[i] != exactRes.Seeds[i] || res.Coverage[i] != exactRes.Coverage[i] {
					t.Fatalf("engine diverged from the S=1 engine at pick %d: (%d,%d) vs (%d,%d)",
						i, res.Seeds[i], res.Coverage[i], exactRes.Seeds[i], exactRes.Coverage[i])
				}
			}
			if res.CoverageUpper != exactRes.CoverageUpper {
				t.Fatalf("upper bound %d, want %d", res.CoverageUpper, exactRes.CoverageUpper)
			}
		})
	}
}

// TestEstimatorConformanceWorkerIndependence pins the repo invariant on
// every engine shape: the worker bound must never change a single
// query answer or pick, including with the parallel paths forced onto
// the small test input.
func TestEstimatorConformanceWorkerIndependence(t *testing.T) {
	forceParallelSharded(t)
	const n = 90
	r := rng.New(23)
	sets := randomSets(r, n, 500, 6)

	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			type answers struct {
				deg   []int
				cov   int64
				seeds []int32
				covs  []int64
				upper int64
			}
			var base *answers
			for _, w := range []int{1, 2, 8} {
				e := tc.make(n, nil)
				e.SetWorkers(w)
				for _, s := range sets {
					e.Add(rrset.RRSet(s))
				}
				a := &answers{cov: e.CoverageOf([]int32{1, 4, 9})}
				for v := int32(0); v < n; v++ {
					a.deg = append(a.deg, e.Degree(v))
				}
				res := e.SelectSeeds(GreedyOptions{K: 6})
				a.seeds, a.covs, a.upper = res.Seeds, res.Coverage, res.CoverageUpper
				if base == nil {
					base = a
					continue
				}
				if a.cov != base.cov {
					t.Fatalf("W=%d: CoverageOf = %d, W=1 got %d", w, a.cov, base.cov)
				}
				for v := range a.deg {
					if a.deg[v] != base.deg[v] {
						t.Fatalf("W=%d: Degree(%d) = %d, W=1 got %d", w, v, a.deg[v], base.deg[v])
					}
				}
				if a.upper != base.upper {
					t.Fatalf("W=%d: upper %d, W=1 got %d", w, a.upper, base.upper)
				}
				for i := range base.seeds {
					if a.seeds[i] != base.seeds[i] || a.covs[i] != base.covs[i] {
						t.Fatalf("W=%d: pick %d = (%d,%d), W=1 got (%d,%d)",
							w, i, a.seeds[i], a.covs[i], base.seeds[i], base.covs[i])
					}
				}
			}
		})
	}
}
