package coverage

import (
	"math"
	"slices"
	"testing"

	"subsim/internal/rng"
)

// forceParallel drops the size thresholds so the parallel shard build
// and the sketch backend's parallel initial-gain pass run even on the
// tiny inputs the tests use, restoring the originals on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	buildMin, gainsMin := parallelBuildMinDelta, parallelGainsMinNodes
	parallelBuildMinDelta, parallelGainsMinNodes = 0, 0
	t.Cleanup(func() {
		parallelBuildMinDelta, parallelGainsMinNodes = buildMin, gainsMin
	})
}

// randomSets draws count RR-set-shaped slices over n nodes with sizes
// in [1, maxLen]; ids may repeat across sets but are unique within one
// (matching real RR sets, though the engine does not require it).
func randomSets(r *rng.Source, n, count, maxLen int) [][]int32 {
	out := make([][]int32, count)
	seen := make([]bool, n)
	for i := range out {
		l := 1 + r.Intn(maxLen)
		set := make([]int32, 0, l)
		for len(set) < l {
			v := int32(r.Intn(n))
			if !seen[v] {
				seen[v] = true
				set = append(set, v)
			}
		}
		for _, v := range set {
			seen[v] = false
		}
		out[i] = set
	}
	return out
}

// TestParallelBuildMatchesSerial drives two engines through the same
// batched append/query schedule — one serial, one with the lane-parallel
// shard rebuild forced on — and demands byte-identical per-shard CSR
// state after every delta rebuild, for several shard and worker counts
// (fewer, as many, and more lanes than shards).
func TestParallelBuildMatchesSerial(t *testing.T) {
	forceParallel(t)
	const n = 97
	for _, shards := range []int{3, 8} {
		for _, workers := range []int{2, 3, 8} {
			r := rng.New(42)
			serial := NewSharded(n, nil, shards)
			par := NewSharded(n, nil, shards)
			par.SetWorkers(workers)
			if par.Workers() != workers {
				t.Fatalf("Workers() = %d", par.Workers())
			}
			// Batches of varying size, including empty deltas and a batch
			// bigger than the node count.
			for _, batch := range []int{1, 7, 0, 64, 3, 200, 1} {
				for _, set := range randomSets(r, n, batch, 9) {
					serial.Add(set)
					par.Add(set)
				}
				serial.ensureIndexed()
				par.ensureIndexed()
				for s := range serial.shards {
					a, b := &serial.shards[s], &par.shards[s]
					if !slices.Equal(a.heads, b.heads) || !slices.Equal(a.postings, b.postings) {
						t.Fatalf("S=%d W=%d: shard %d CSR differs from the serial rebuild", shards, workers, s)
					}
				}
			}
		}
	}
}

// TestParallelGainsMatchSerial compares full SelectSeeds outcomes —
// seeds, coverages, upper bound — between a serial engine and one built
// as im.NewEstimator builds it for W workers (W shards), whose initial
// gains sum over the shards and whose per-round reduces are forced to
// fan out, with and without exclusions.
func TestParallelGainsMatchSerial(t *testing.T) {
	forceParallelSharded(t)
	const n = 61
	r := rng.New(7)
	sets := randomSets(r, n, 300, 6)
	exclude := make([]bool, n)
	for v := 0; v < n; v += 5 {
		exclude[v] = true
	}
	outDeg := make([]int32, n)
	for v := range outDeg {
		outDeg[v] = int32(r.Intn(50))
	}
	for _, workers := range []int{2, 8} {
		serial := shardedFromSets(n, 1, outDeg, sets)
		par := shardedFromSets(n, workers, outDeg, sets)
		par.SetWorkers(workers)
		for _, opt := range []GreedyOptions{
			{K: 1},
			{K: 8},
			{K: n},
			{K: 5, Revised: true},
			{K: 6, Exclude: exclude, Base: 11, TopL: 9},
		} {
			a := serial.SelectSeeds(opt)
			b := par.SelectSeeds(opt)
			if !slices.Equal(a.Seeds, b.Seeds) || !slices.Equal(a.Coverage, b.Coverage) {
				t.Fatalf("workers=%d opt=%+v: picks %v/%v, want %v/%v", workers, opt, b.Seeds, b.Coverage, a.Seeds, a.Coverage)
			}
			if a.CoverageUpper != b.CoverageUpper {
				t.Fatalf("workers=%d opt=%+v: upper %d vs %d", workers, opt, b.CoverageUpper, a.CoverageUpper)
			}
		}
	}
}

// incrementalDeltas interleaves appends and queries on an engine with
// every fan-out forced, so most CSR rebuilds are small per-shard deltas
// over existing postings — the regime where the block-copy of old
// postings dominates — and cross-checks degrees against recounting from
// scratch.
func incrementalDeltas(t *testing.T, shards, workers int) {
	forceParallelSharded(t)
	const n = 40
	r := rng.New(99)
	x := NewSharded(n, nil, shards)
	x.SetWorkers(workers)
	var all [][]int32
	for round := 0; round < 30; round++ {
		for _, set := range randomSets(r, n, 1+r.Intn(5), 5) {
			x.Add(set)
			all = append(all, set)
		}
		deg := make(map[int32]int)
		for _, set := range all {
			for _, v := range set {
				deg[v]++
			}
		}
		for v := int32(0); v < n; v++ {
			if got := x.Degree(v); got != deg[v] {
				t.Fatalf("S=%d W=%d round %d: Degree(%d) = %d, want %d", shards, workers, round, v, got, deg[v])
			}
		}
	}
}

// TestParallelBuildIncrementalDeltas runs the incremental schedule with
// fewer lanes than shards, so each lane rebuilds several shards.
func TestParallelBuildIncrementalDeltas(t *testing.T) { incrementalDeltas(t, 8, 3) }

// runWraparound exercises the uint32 stamp wraparound: when a shard's
// run counter overflows, newRun must clear all its covered stamps so
// stale stamps from 4 billion runs ago can never alias a live run id,
// and every query must keep returning exact counts across the boundary.
func runWraparound(t *testing.T, shards int) {
	sets := [][]int32{{0, 1}, {1, 2}, {3}, {0, 3}, {4}}
	x := shardedFromSets(5, shards, nil, sets)
	seeds := []int32{0, 4}
	want := bruteCoverage(sets, seeds)
	if got := x.CoverageOf(seeds); got != want {
		t.Fatalf("S=%d: pre-wrap CoverageOf = %d, want %d", shards, got, want)
	}

	// Park every counter one run before overflow. The covered stamps
	// still hold the (now enormous) run id from the call above.
	for s := range x.shards {
		sh := &x.shards[s]
		sh.run = math.MaxUint32
		sh.newRun()
		if sh.run != 1 {
			t.Fatalf("S=%d: shard %d run after wraparound = %d, want 1", shards, s, sh.run)
		}
		for i, c := range sh.covered {
			if c != 0 {
				t.Fatalf("S=%d: shard %d covered[%d] = %d after wraparound, want 0", shards, s, i, c)
			}
		}
	}

	// Every query after the wrap must still be exact — in particular the
	// first run id reused after wrapping (1) must not see phantom
	// coverage from stamps written before the reset.
	if got := x.CoverageOf(seeds); got != want {
		t.Fatalf("S=%d: post-wrap CoverageOf = %d, want %d", shards, got, want)
	}
	if got := x.CoverageOf([]int32{1}); got != 2 {
		t.Fatalf("S=%d: post-wrap CoverageOf({1}) = %d, want 2", shards, got)
	}
	// Greedy picks node 0 (covers sets 0 and 3), then node 1 (set 1).
	if res := x.SelectSeeds(GreedyOptions{K: 2}); res.TotalCoverage(0) != 3 {
		t.Fatalf("S=%d: post-wrap selection coverage = %d, want 3", shards, res.TotalCoverage(0))
	}

	// Cross the boundary again mid-sequence: interleave queries around
	// the exact overflow point and compare against brute force.
	for s := range x.shards {
		x.shards[s].run = math.MaxUint32 - 2
	}
	for i := 0; i < 6; i++ {
		if got := x.CoverageOf(seeds); got != want {
			t.Fatalf("S=%d: wrap sequence step %d: CoverageOf = %d, want %d", shards, i, got, want)
		}
	}
}

// TestRunWraparound pins the stamp wraparound on the serial S=1 engine.
func TestRunWraparound(t *testing.T) { runWraparound(t, 1) }

// selectScratchReuse verifies that the per-run selection scratch really
// is recycled: repeated selections on a warm engine must not allocate
// beyond the returned Seeds/Coverage slices.
func selectScratchReuse(t *testing.T, shards int) {
	const n = 200
	r := rng.New(3)
	x := shardedFromSets(n, shards, nil, randomSets(r, n, 2000, 8))
	x.SelectSeeds(GreedyOptions{K: 10}) // warm: builds the shards + scratch
	allocs := testing.AllocsPerRun(20, func() {
		x.SelectSeeds(GreedyOptions{K: 10})
	})
	// Seeds + Coverage are the only per-call allocations.
	if allocs > 3 {
		t.Fatalf("S=%d: SelectSeeds allocates %.1f objects/run on a warm engine", shards, allocs)
	}
}

// TestSelectSeedsScratchReuse pins selection scratch reuse on the serial
// S=1 engine.
func TestSelectSeedsScratchReuse(t *testing.T) { selectScratchReuse(t, 1) }

// rebuildScratchReuse verifies the double-buffered per-shard CSR
// rebuild: after the first build at steady-state capacity, appending and
// re-indexing a same-sized delta must not allocate (the old heads and
// postings become the next build's scratch).
func rebuildScratchReuse(t *testing.T, shards int) {
	const n = 100
	r := rng.New(5)
	x := NewSharded(n, nil, shards)
	// Warm to steady state: several rebuilds so heads/postings/covered
	// and their scratch twins all reach final capacity.
	warm := randomSets(r, n, 4000, 6)
	for i, set := range warm {
		x.Add(set)
		if i%500 == 0 {
			x.Degree(0)
		}
	}
	x.Degree(0)
	sets := randomSets(r, n, 40, 6)
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		x.Add(sets[i%len(sets)])
		i++
		x.Degree(0) // forces the delta rebuild
	})
	if allocs > 0.5 {
		t.Fatalf("S=%d: steady-state delta rebuild allocates %.1f objects/run", shards, allocs)
	}
}

// TestRebuildScratchReuse pins rebuild scratch reuse on the serial S=1
// engine.
func TestRebuildScratchReuse(t *testing.T) { rebuildScratchReuse(t, 1) }
