package coverage

import (
	"sync/atomic"
	"testing"

	"subsim/internal/obs/timeline"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// forceParallelSharded drops every size threshold the sharded engine
// gates its fan-outs on — the build AND the per-round reduces — so tiny
// test inputs exercise the parallel paths.
func forceParallelSharded(t *testing.T) {
	t.Helper()
	forceParallel(t)
	reduceMin := parallelReduceMinPostings
	parallelReduceMinPostings = 0
	t.Cleanup(func() { parallelReduceMinPostings = reduceMin })
}

func TestShardOf(t *testing.T) {
	for _, tc := range []struct {
		idx    int64
		shards int
		want   int
	}{
		{0, 1, 0}, {5, 1, 0}, {0, 4, 0}, {1, 4, 1}, {4, 4, 0}, {7, 3, 1},
		{1 << 40, 8, 0}, {(1 << 40) + 3, 8, 3},
	} {
		if got := ShardOf(tc.idx, tc.shards); got != tc.want {
			t.Errorf("ShardOf(%d, %d) = %d, want %d", tc.idx, tc.shards, got, tc.want)
		}
	}
}

func TestReducePartials(t *testing.T) {
	for _, in := range [][]int64{
		nil, {}, {7}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4, 5, 6, 7},
		{-3, 10, -4, 0, 2},
	} {
		var want int64
		for _, v := range in {
			want += v
		}
		buf := append([]int64(nil), in...)
		if got := reducePartials(buf); got != want {
			t.Errorf("reducePartials(%v) = %d, want %d", in, got, want)
		}
	}
}

// TestShardedMatchesIndex is the core exactness pin: the engine over any
// shard count, at any worker bound, with and without the parallel paths
// forced, must answer Degree, CoverageOf, and SelectSeeds
// byte-identically to the S=1, W=1 serial engine — a single store with
// a single CSR index.
func TestShardedMatchesIndex(t *testing.T) {
	const n = 83
	r := rng.New(11)
	sets := randomSets(r, n, 400, 7)
	outDeg := make([]int32, n)
	for v := range outDeg {
		outDeg[v] = int32(r.Intn(40))
	}
	exclude := make([]bool, n)
	for v := 0; v < n; v += 7 {
		exclude[v] = true
	}
	ref := shardedFromSets(n, 1, outDeg, sets)

	run := func(t *testing.T) {
		for _, shards := range []int{1, 2, 3, 8} {
			for _, workers := range []int{1, 2, 8} {
				x := shardedFromSets(n, shards, outDeg, sets)
				x.SetWorkers(workers)
				if x.NumShards() != shards || x.Workers() != workers {
					t.Fatalf("shape: shards=%d workers=%d", x.NumShards(), x.Workers())
				}
				if x.NumSets() != len(sets) {
					t.Fatalf("S=%d W=%d: NumSets = %d, want %d", shards, workers, x.NumSets(), len(sets))
				}
				for v := int32(0); v < n; v++ {
					if got, want := x.Degree(v), ref.Degree(v); got != want {
						t.Fatalf("S=%d W=%d: Degree(%d) = %d, want %d", shards, workers, v, got, want)
					}
				}
				for _, seeds := range [][]int32{{0}, {1, 2, 3}, {80, 4, 80}} {
					if got, want := x.CoverageOf(seeds), ref.CoverageOf(seeds); got != want {
						t.Fatalf("S=%d W=%d: CoverageOf(%v) = %d, want %d", shards, workers, seeds, got, want)
					}
				}
				for _, opt := range []GreedyOptions{
					{K: 1},
					{K: 10},
					{K: n},
					{K: 6, Revised: true},
					{K: 5, Exclude: exclude, Base: 13, TopL: 7},
				} {
					a := ref.SelectSeeds(opt)
					b := x.SelectSeeds(opt)
					if len(a.Seeds) != len(b.Seeds) {
						t.Fatalf("S=%d W=%d opt=%+v: %d vs %d seeds", shards, workers, opt, len(b.Seeds), len(a.Seeds))
					}
					for i := range a.Seeds {
						if a.Seeds[i] != b.Seeds[i] || a.Coverage[i] != b.Coverage[i] {
							t.Fatalf("S=%d W=%d opt=%+v: pick %d = (%d,%d), want (%d,%d)",
								shards, workers, opt, i, b.Seeds[i], b.Coverage[i], a.Seeds[i], a.Coverage[i])
						}
					}
					if a.CoverageUpper != b.CoverageUpper {
						t.Fatalf("S=%d W=%d opt=%+v: upper %d, want %d", shards, workers, opt, b.CoverageUpper, a.CoverageUpper)
					}
				}
			}
		}
	}
	t.Run("thresholds-default", run)
	t.Run("thresholds-forced", func(t *testing.T) {
		forceParallelSharded(t)
		run(t)
	})
}

// TestShardedIncrementalDeltas runs the incremental schedule with more
// lanes than shards, so the lane count clamps to the shard count.
func TestShardedIncrementalDeltas(t *testing.T) { incrementalDeltas(t, 3, 4) }

// TestShardedAbsorbArenaSentinel drives the generic ingestion path: the
// flat buffer's sentinel-terminated sets are skipped and counted, and
// the kept sets land exactly where per-set Adds would have put them.
func TestShardedAbsorbArenaSentinel(t *testing.T) {
	sentinel := make([]bool, 10)
	sentinel[9] = true
	data := []int32{0, 1, 2, 9, 3, 4, 5, 9, 6}
	ends := []int64{2, 4, 5, 6, 8, 9}
	// Sets: {0,1} keep, {2,9} hit, {3} keep, {4} keep, {5,9} hit, {6} keep.
	x := NewSharded(10, nil, 3)
	if hits := x.AbsorbArena(data, ends, sentinel); hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	want := shardedFromSets(10, 3, nil, [][]int32{{0, 1}, {3}, {4}, {6}})
	if x.NumSets() != 4 {
		t.Fatalf("NumSets = %d, want 4", x.NumSets())
	}
	for s := 0; s < 3; s++ {
		if got, wantLen := x.ShardArena(s).Len(), want.ShardArena(s).Len(); got != wantLen {
			t.Fatalf("shard %d holds %d sets, want %d", s, got, wantLen)
		}
	}
	for v := int32(0); v < 10; v++ {
		if got, wantDeg := x.Degree(v), want.Degree(v); got != wantDeg {
			t.Fatalf("Degree(%d) = %d, want %d", v, got, wantDeg)
		}
	}
	// nil sentinel keeps everything.
	y := NewSharded(10, nil, 2)
	if hits := y.AbsorbArena(data, ends, nil); hits != 0 {
		t.Fatalf("nil sentinel hits = %d", hits)
	}
	if y.NumSets() != 6 {
		t.Fatalf("nil sentinel NumSets = %d, want 6", y.NumSets())
	}
}

// TestShardedRunWraparound pins the stamp wraparound on a multi-shard
// engine, where every shard's counter wraps independently.
func TestShardedRunWraparound(t *testing.T) { runWraparound(t, 2) }

// TestShardedSelectSeedsScratchReuse pins selection scratch reuse on a
// multi-shard engine.
func TestShardedSelectSeedsScratchReuse(t *testing.T) { selectScratchReuse(t, 4) }

// TestShardedRebuildScratchReuse pins per-shard rebuild scratch reuse on
// a multi-shard engine.
func TestShardedRebuildScratchReuse(t *testing.T) { rebuildScratchReuse(t, 2) }

func TestShardedConstructionClamps(t *testing.T) {
	if got := NewSharded(10, nil, 0).NumShards(); got != 1 {
		t.Errorf("shards=0 clamps to %d, want 1", got)
	}
	x := NewSharded(10, nil, 2)
	x.SetWorkers(0)
	if x.Workers() != 1 {
		t.Errorf("SetWorkers(0) leaves %d, want 1", x.Workers())
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched outDeg length did not panic")
		}
	}()
	NewSharded(10, make([]int32, 3), 2)
}

func TestShardedRevisedRequiresOutDeg(t *testing.T) {
	x := shardedFromSets(5, 2, nil, [][]int32{{0}, {1}})
	defer func() {
		if recover() == nil {
			t.Error("Revised greedy without out-degrees did not panic")
		}
	}()
	x.SelectSeeds(GreedyOptions{K: 1, Revised: true})
}

// TestShardedReduceVisibleInTimeline pins the observability contract of
// the fanned-out CELF rounds: with the reduce threshold forced, a
// select over a timeline-attached sharded engine must emit PhaseReduce
// records from >1 worker — the spans that make rounds beyond the first
// visible as parallel in the /timeline digest and the Perfetto trace.
// (At laptop-scale posting masses the threshold honestly keeps the
// reduce inline, so visibility is pinned here, scale-independently.)
func TestShardedReduceVisibleInTimeline(t *testing.T) {
	forceParallelSharded(t)
	r := rng.New(71)
	sets := randomSets(r, 80, 600, 10)
	x := NewSharded(80, nil, 4)
	var now atomic.Int64
	tl := timeline.New(1024, func() int64 { return now.Add(1000) })
	x.SetTimeline(tl)
	for _, s := range sets {
		x.Add(rrset.RRSet(s))
	}
	x.SetWorkers(4)
	if res := x.SelectSeeds(GreedyOptions{K: 8}); len(res.Seeds) != 8 {
		t.Fatalf("selected %d seeds, want 8", len(res.Seeds))
	}
	sum := timeline.Summarize(tl.Snapshot())
	for _, p := range sum.Phases {
		if p.Phase == timeline.PhaseReduce.String() {
			if p.Records == 0 || p.Workers < 2 {
				t.Fatalf("reduce phase records=%d workers=%d, want parallel records", p.Records, p.Workers)
			}
			return
		}
	}
	t.Fatalf("no %q phase in timeline digest: %+v", timeline.PhaseReduce.String(), sum.Phases)
}
