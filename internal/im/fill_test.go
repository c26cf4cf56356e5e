package im

import (
	"slices"
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// TestShardedPipelineEquivalence is the pipeline property test of the
// exact engine's fill paths: for every generator kind and worker count,
// Batcher.Fill into an engine with one shard per worker (the direct
// shard-arena path) must yield the same set count, identical merged
// generator stats, and byte-identical seeds and certified Λᵘ as the
// workers=1, single-shard reference. An engine whose shard count differs
// from the worker count is refused before anything is drawn.
func TestShardedPipelineEquivalence(t *testing.T) {
	const (
		count = 1500
		k     = 8
		seed  = 77
	)
	for _, c := range equivCases(t) {
		t.Run(c.name, func(t *testing.T) {
			refGen := c.gen()
			n := refGen.Graph().N()
			refB := NewBatcher(refGen, seed, 1)
			ref := coverage.NewSharded(n, nil, 1)
			mustFill(t, refB, ref, count, nil)
			refStats := refB.Stats()
			refSel := ref.SelectSeeds(coverage.GreedyOptions{K: k})

			check := func(t *testing.T, b *Batcher, sh *coverage.Sharded, workers int) {
				t.Helper()
				if hits := mustFill(t, b, sh, count, nil); hits != 0 {
					t.Fatalf("workers=%d: unexpected sentinel hits %d", workers, hits)
				}
				if sh.NumSets() != ref.NumSets() {
					t.Fatalf("workers=%d: %d sets, want %d", workers, sh.NumSets(), ref.NumSets())
				}
				if s := b.Stats(); s != refStats {
					t.Fatalf("workers=%d: stats %+v, want %+v", workers, s, refStats)
				}
				sel := sh.SelectSeeds(coverage.GreedyOptions{K: k})
				if len(sel.Seeds) != len(refSel.Seeds) {
					t.Fatalf("workers=%d: %d seeds, want %d", workers, len(sel.Seeds), len(refSel.Seeds))
				}
				for i := range sel.Seeds {
					if sel.Seeds[i] != refSel.Seeds[i] || sel.Coverage[i] != refSel.Coverage[i] {
						t.Fatalf("workers=%d: pick %d = (%d,%d), want (%d,%d)", workers, i,
							sel.Seeds[i], sel.Coverage[i], refSel.Seeds[i], refSel.Coverage[i])
					}
				}
				if sel.CoverageUpper != refSel.CoverageUpper {
					t.Fatalf("workers=%d: Λᵘ %d, want %d", workers, sel.CoverageUpper, refSel.CoverageUpper)
				}
			}

			for _, workers := range []int{1, 2, 8} {
				// Matched shard count: the direct shard-arena path.
				b := NewBatcher(c.gen(), seed, workers)
				sh := coverage.NewSharded(n, nil, workers)
				sh.SetWorkers(workers)
				check(t, b, sh, workers)
			}
			// Mismatched shard count: an error, and nothing drawn.
			b := NewBatcher(c.gen(), seed, 2)
			sh := coverage.NewSharded(n, nil, 5)
			if _, err := b.Fill(sh, count, nil); err == nil {
				t.Fatal("Fill into 5 shards from 2 workers returned no error")
			}
			if sh.NumSets() != 0 || b.Stats().Sets != 0 {
				t.Fatalf("refused Fill drew sets: %d kept, %d generated", sh.NumSets(), b.Stats().Sets)
			}
		})
	}
}

// mustFill is Batcher.Fill for collections that stay far below
// MaxSets: any error fails the test.
func mustFill(t *testing.T, b *Batcher, est *coverage.Sharded, count int, sentinel []bool) int64 {
	t.Helper()
	hits, err := b.Fill(est, count, sentinel)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

// TestFillRefusesPastMaxSets pins the collection cap: a Fill that would
// grow an estimator past MaxSets sets returns an error before drawing
// anything, instead of overflowing the int32 set ids of the postings.
func TestFillRefusesPastMaxSets(t *testing.T) {
	g := estimatorTestGraph(t)
	b := NewBatcher(rrset.NewSubsim(g), 1, 2)
	est := NewEstimator(g.N(), nil, Options{Workers: 2}, nil)
	mustFill(t, b, est, 10, nil)
	if _, err := b.Fill(est, MaxSets-9, nil); err == nil {
		t.Fatal("Fill past MaxSets returned no error")
	}
	if est.NumSets() != 10 || b.Stats().Sets != 10 {
		t.Fatalf("refused Fill drew sets: %d kept, %d generated", est.NumSets(), b.Stats().Sets)
	}
}

// TestShardedSentinelHits pins sentinel filtering on the direct fill
// path, where sentinel-terminated sets are truncated in place
// (Arena.DropLast) and per-shard kept counts really differ: for every
// worker count the engine must report the same hit count, keep the same
// number of sets, and select the same seeds as the workers=1 reference —
// with the sentinel hits also visible in the generator stats.
func TestShardedSentinelHits(t *testing.T) {
	const (
		count = 2000
		k     = 6
		seed  = 19
	)
	g := estimatorTestGraph(t)
	sentinel := make([]bool, g.N())
	// Hub nodes make good sentinels: plenty of traversals hit them.
	for v := 0; v < 20; v++ {
		sentinel[v] = true
	}

	refB := NewBatcher(rrset.NewSubsim(g), seed, 1)
	ref := coverage.NewSharded(g.N(), nil, 1)
	refHits := mustFill(t, refB, ref, count, sentinel)
	if refHits == 0 {
		t.Fatal("reference run hit no sentinels; test graph/sentinel choice is broken")
	}
	refSel := ref.SelectSeeds(coverage.GreedyOptions{K: k, Exclude: sentinel})

	for _, workers := range []int{1, 2, 8} {
		b := NewBatcher(rrset.NewSubsim(g), seed, workers)
		sh := coverage.NewSharded(g.N(), nil, workers)
		sh.SetWorkers(workers)
		hits := mustFill(t, b, sh, count, sentinel)
		if hits != refHits {
			t.Fatalf("workers=%d: %d sentinel hits, want %d", workers, hits, refHits)
		}
		if sh.NumSets() != ref.NumSets() {
			t.Fatalf("workers=%d: %d surviving sets, want %d", workers, sh.NumSets(), ref.NumSets())
		}
		if s := b.Stats(); s.SentinelHits != refHits {
			t.Fatalf("workers=%d: stats count %d sentinel hits, want %d", workers, s.SentinelHits, refHits)
		}
		sel := sh.SelectSeeds(coverage.GreedyOptions{K: k, Exclude: sentinel})
		for i := range refSel.Seeds {
			if sel.Seeds[i] != refSel.Seeds[i] {
				t.Fatalf("workers=%d: seed %d is %d, want %d", workers, i, sel.Seeds[i], refSel.Seeds[i])
			}
		}
		if sel.CoverageUpper != refSel.CoverageUpper {
			t.Fatalf("workers=%d: Λᵘ %d, want %d", workers, sel.CoverageUpper, refSel.CoverageUpper)
		}
	}
}

// TestSpliceSentinelWorkerEquality pins the content of the shard arenas
// under sentinel filtering, the branch where per-shard kept counts
// really differ. For every worker count, filling in two rounds (so the
// second appends behind existing shard content), shard s must hold
// exactly the sets with global index ≡ s (mod shards) that contain no
// sentinel, in index order, as a workers=1 batcher generates them; the
// engine must report the same hit count and select the same seeds as
// the single-shard reference. The name dates from the arena-to-store
// splice that the direct shard fill replaced.
func TestSpliceSentinelWorkerEquality(t *testing.T) {
	g, err := graph.GenErdosRenyi(500, 4000, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	sentinel := make([]bool, g.N())
	for v := 0; v < g.N(); v += 3 {
		sentinel[v] = true
	}
	const (
		count = 1200
		seed  = 13
	)

	// Every set in global-index order, sentinel-terminated ones included.
	all := NewBatcher(rrset.NewSubsim(g), seed, 1).Generate(count, sentinel)
	hit := make([]bool, count)
	var wantHits int64
	for i, set := range all {
		hit[i] = slices.ContainsFunc(set, func(v int32) bool { return sentinel[v] })
		if hit[i] {
			wantHits++
		}
	}
	if wantHits == 0 || wantHits == count {
		t.Fatalf("%d of %d sets hit a sentinel; test graph/sentinel choice is broken", wantHits, count)
	}

	ref := coverage.NewSharded(g.N(), nil, 1)
	if hits := mustFill(t, NewBatcher(rrset.NewSubsim(g), seed, 1), ref, count, sentinel); hits != wantHits {
		t.Fatalf("reference fill: %d sentinel hits, want %d", hits, wantHits)
	}
	refSel := ref.SelectSeeds(coverage.GreedyOptions{K: 5, Exclude: sentinel})

	for _, workers := range []int{1, 2, 8} {
		b := NewBatcher(rrset.NewSubsim(g), seed, workers)
		sh := coverage.NewSharded(g.N(), nil, workers)
		sh.SetWorkers(workers)
		hits := mustFill(t, b, sh, count/2, sentinel)
		hits += mustFill(t, b, sh, count-count/2, sentinel)
		if hits != wantHits {
			t.Fatalf("workers=%d: %d sentinel hits, want %d", workers, hits, wantHits)
		}
		for s := 0; s < workers; s++ {
			a := sh.ShardArena(s)
			j := 0
			for i, set := range all {
				if hit[i] || coverage.ShardOf(int64(i), workers) != s {
					continue
				}
				if j >= a.Len() {
					t.Fatalf("workers=%d: shard %d holds %d sets, wants more", workers, s, a.Len())
				}
				if got := a.Set(j); !slices.Equal(got, set) {
					t.Fatalf("workers=%d: shard %d set %d is %v, want global set %d %v", workers, s, j, got, i, set)
				}
				j++
			}
			if a.Len() != j {
				t.Fatalf("workers=%d: shard %d holds %d sets, want %d", workers, s, a.Len(), j)
			}
		}
		sel := sh.SelectSeeds(coverage.GreedyOptions{K: 5, Exclude: sentinel})
		for i := range refSel.Seeds {
			if sel.Seeds[i] != refSel.Seeds[i] {
				t.Fatalf("workers=%d: seed %d is %d, want %d", workers, i, sel.Seeds[i], refSel.Seeds[i])
			}
		}
		if sel.CoverageUpper != refSel.CoverageUpper {
			t.Fatalf("workers=%d: Λᵘ %d, want %d", workers, sel.CoverageUpper, refSel.CoverageUpper)
		}
	}
}

// TestShardedFillAmortizedAllocs pins the multi-shard fill (one
// generating goroutine per shard) under the same allocation bound as
// the serial fill.
func TestShardedFillAmortizedAllocs(t *testing.T) { fillAmortizedAllocs(t, 2) }

// TestShardedConcurrentFill exercises the multi-shard Fill path
// (one goroutine per shard writing its own arena) repeatedly,
// interleaved with parallel rebuilds and selections, so `go test -race`
// covers the handoff; it re-checks set accounting.
func TestShardedConcurrentFill(t *testing.T) {
	concurrentFill(t, nil)
}

// TestSpliceRaceParallel runs the same concurrent fill with every 7th
// node a sentinel, so the race detector also sees each shard goroutine
// truncating its sentinel-terminated sets in place (Arena.DropLast).
// The name dates from the arena-to-store splice that the direct shard
// fill replaced.
func TestSpliceRaceParallel(t *testing.T) {
	sentinel := make([]bool, allocGraph(t).N())
	for v := 0; v < len(sentinel); v += 7 {
		sentinel[v] = true
	}
	concurrentFill(t, sentinel)
}

// concurrentFill fills an 8-shard engine from an 8-worker batcher in
// four rounds of 1000 sets, selecting between rounds, and checks that
// kept sets plus sentinel hits account for every generated set.
func concurrentFill(t *testing.T, sentinel []bool) {
	t.Helper()
	g := allocGraph(t)
	b := NewBatcher(rrset.NewSubsim(g), 7, 8)
	sh := coverage.NewSharded(g.N(), nil, 8)
	sh.SetWorkers(8)
	var hits int64
	for round := 0; round < 4; round++ {
		hits += mustFill(t, b, sh, 1000, sentinel)
		if got := int64(sh.NumSets()) + hits; got != int64(1000*(round+1)) {
			t.Fatalf("round %d: %d kept + %d hits, want %d", round, sh.NumSets(), hits, 1000*(round+1))
		}
		// Query between rounds so rebuilds interleave with fills.
		sh.SelectSeeds(coverage.GreedyOptions{K: 4, Exclude: sentinel})
	}
	if (sentinel == nil) != (hits == 0) {
		t.Fatalf("sentinel set %v, %d hits", sentinel != nil, hits)
	}
	if s := b.Stats(); s.Sets != 4000 || s.SentinelHits != hits {
		t.Fatalf("merged stats count %d sets and %d sentinel hits, want 4000 and %d", s.Sets, s.SentinelHits, hits)
	}
}

// TestBatcherReserveColdStart pins the estimate NewBatcher keeps for the
// cold-start reservation, before any set exists: coldNodes is the
// graph's average degree plus one, clamped to [2,64], and a generator
// without a graph gets the floor of 2.
func TestBatcherReserveColdStart(t *testing.T) {
	g := estimatorTestGraph(t) // PA 1000x5: avg degree ~5 → coldNodes 6
	b := NewBatcher(rrset.NewSubsim(g), 1, 2)
	if b.coldNodes < 2 || b.coldNodes > 64 {
		t.Fatalf("coldNodes = %d outside its [2,64] clamp", b.coldNodes)
	}
	if want := int(g.AvgDegree()) + 1; b.coldNodes != want {
		t.Fatalf("coldNodes = %d, want AvgDegree+1 = %d", b.coldNodes, want)
	}

	// A graph denser than the clamp gets the ceiling.
	dense, err := graph.GenErdosRenyi(100, 7000, rng.New(3)) // avg degree 70
	if err != nil {
		t.Fatal(err)
	}
	dense.AssignWC()
	if got := NewBatcher(rrset.NewSubsim(dense), 1, 1).coldNodes; got != 64 {
		t.Errorf("dense-graph coldNodes = %d, want the clamp 64", got)
	}

	// Graph-less generators (nil Graph) still get the floor of 2.
	if got := NewBatcher(nilGraphGen{}, 1, 1).coldNodes; got != 2 {
		t.Errorf("nil-graph coldNodes = %d, want 2", got)
	}
}

// TestReserveColdStart is the white-box pin of the cold-start
// reservation: on a batcher whose generators have produced nothing, the
// first reserve must pre-size the arena from coldNodes, not from the
// zero observed average — reserving zero nodes would eat log2(batch)
// reallocations on the very first fill. Once sets exist, the
// reservation of an empty arena follows the observed average instead.
func TestReserveColdStart(t *testing.T) {
	g := estimatorTestGraph(t)
	b := NewBatcher(rrset.NewSubsim(g), 1, 2)

	const cnt = 100
	a := rrset.NewArena(0, 0)
	b.reserve(a, 0, cnt)
	if got := cap(a.Data()); got < cnt*b.coldNodes {
		t.Errorf("cold reserve gave %d node capacity, want >= cnt*coldNodes = %d", got, cnt*b.coldNodes)
	}
	if got := cap(a.Ends()); got < cnt {
		t.Errorf("cold reserve gave %d set slots, want >= %d", got, cnt)
	}

	// Warm path: after real sets exist the reservation of an empty arena
	// follows the generator's observed average (1.25× headroom), not
	// coldNodes.
	b.Visit(200, nil, func([]int32) bool { return true })
	s := b.gens[0].Stats()
	if s.Sets == 0 {
		t.Fatal("warmup generated nothing through worker 0")
	}
	w := rrset.NewArena(0, 0)
	b.reserve(w, 0, cnt)
	if want := int(s.AvgSize()*float64(cnt)*1.25) + cnt; cap(w.Data()) < want {
		t.Errorf("warm reserve gave %d node capacity, want >= %d (avg-size driven)", cap(w.Data()), want)
	}
}

// TestReserveFollowsArenaAverage pins the reservation of a persistent
// shard arena: once the arena holds sets, reserve must leave room for
// cnt sets of the arena's own average size even when the generator's
// running average was pulled down by draws that never reached the arena
// — HIST's sentinel-terminated verification draws. Reserving from the
// diluted average lets the next fill overrun the reservation, and the
// append then regrows and copies the whole arena.
func TestReserveFollowsArenaAverage(t *testing.T) {
	g := allocGraph(t)
	b := NewBatcher(rrset.NewSubsim(g), 1, 1)
	const size, held, cnt = 40, 500, 5000
	a := rrset.NewArena(0, 0)
	set := make([]int32, size)
	for i := 0; i < held; i++ {
		a.Append(set)
	}
	// Every node a sentinel: each draw stops at its root, a 1-node set.
	sentinel := make([]bool, g.N())
	for v := range sentinel {
		sentinel[v] = true
	}
	b.Visit(2000, sentinel, func([]int32) bool { return true })
	if avg := b.gens[0].Stats().AvgSize(); avg > 2 {
		t.Fatalf("generator average %.1f not diluted by the sentinel draws", avg)
	}
	b.reserve(a, 0, cnt)
	if free := cap(a.Data()) - a.NumNodes(); free < cnt*size {
		t.Fatalf("reserve left room for %d node ids, want >= %d (%d sets of the arena's average %d)",
			free, cnt*size, cnt, size)
	}
}

// nilGraphGen is a Generator stub with no graph, for the cold-start
// fallback check; only Graph(), Stats() and Clone() are ever called on
// it (the embedded nil Generator panics on anything else).
type nilGraphGen struct{ rrset.Generator }

func (nilGraphGen) Graph() *graph.Graph    { return nil }
func (nilGraphGen) Stats() rrset.Stats     { return rrset.Stats{} }
func (nilGraphGen) Clone() rrset.Generator { return nilGraphGen{} }
