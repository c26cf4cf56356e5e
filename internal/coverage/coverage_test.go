package coverage

import (
	"container/heap"
	"slices"
	"testing"
	"testing/quick"

	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// shardedFromSets builds the exact engine from explicit sets through
// the per-set Add path, which routes by collection index.
func shardedFromSets(n, shards int, outDeg []int32, sets [][]int32) *Sharded {
	x := NewSharded(n, outDeg, shards)
	for _, s := range sets {
		x.Add(rrset.RRSet(s))
	}
	return x
}

// exactFromSets builds the exact engine over sets at every shard count
// the brute-force tests cover: the serial S=1 engine and a multi-shard
// one, whose every answer is a sum over shards.
func exactFromSets(n int, outDeg []int32, sets [][]int32) []*Sharded {
	return []*Sharded{
		shardedFromSets(n, 1, outDeg, sets),
		shardedFromSets(n, 3, outDeg, sets),
	}
}

// bruteCoverage counts sets intersecting seeds.
func bruteCoverage(sets [][]int32, seeds []int32) int64 {
	inSeed := map[int32]bool{}
	for _, s := range seeds {
		inSeed[s] = true
	}
	var c int64
	for _, set := range sets {
		for _, v := range set {
			if inSeed[v] {
				c++
				break
			}
		}
	}
	return c
}

// bruteBestK exhaustively finds the maximum coverage of any k-subset.
func bruteBestK(n int, sets [][]int32, k int) int64 {
	best := int64(0)
	var rec func(start int, chosen []int32)
	rec = func(start int, chosen []int32) {
		if len(chosen) == k {
			if c := bruteCoverage(sets, chosen); c > best {
				best = c
			}
			return
		}
		for v := start; v < n; v++ {
			rec(v+1, append(chosen, int32(v)))
		}
	}
	rec(0, nil)
	return best
}

func TestCoverageOfMatchesBruteForce(t *testing.T) {
	sets := [][]int32{{0, 1}, {1, 2}, {3}, {0, 3}, {4}}
	for _, x := range exactFromSets(5, nil, sets) {
		cases := [][]int32{{}, {0}, {1}, {0, 1}, {3, 4}, {0, 1, 2, 3, 4}}
		for _, seeds := range cases {
			if got, want := x.CoverageOf(seeds), bruteCoverage(sets, seeds); got != want {
				t.Errorf("CoverageOf(%v) = %d, want %d", seeds, got, want)
			}
		}
		if x.NumSets() != 5 || x.N() != 5 {
			t.Fatal("counts wrong")
		}
		if x.Degree(1) != 2 {
			t.Fatalf("Degree(1) = %d", x.Degree(1))
		}
	}
}

func TestGreedySingleSeedIsOptimal(t *testing.T) {
	sets := [][]int32{{0, 1}, {1, 2}, {1}, {3}, {3}, {3}}
	for _, x := range exactFromSets(4, nil, sets) {
		res := x.SelectSeeds(GreedyOptions{K: 1})
		if len(res.Seeds) != 1 {
			t.Fatal("wrong seed count")
		}
		// Node 1 and node 3 both cover 3 sets; tie-break by id picks 1.
		if res.Seeds[0] != 1 {
			t.Fatalf("picked %d", res.Seeds[0])
		}
		if res.Coverage[0] != 3 {
			t.Fatalf("coverage %d", res.Coverage[0])
		}
	}
}

func TestGreedyMatchesKnownSelection(t *testing.T) {
	// Classic max-coverage: greedy picks the biggest, then the best
	// marginal.
	sets := [][]int32{
		{0}, {0}, {0}, // node 0 covers 3
		{1, 0}, {1}, // node 1 covers 2, marginal after 0 is 1
		{2}, {2}, // node 2 covers 2, marginal 2
	}
	for _, x := range exactFromSets(3, nil, sets) {
		res := x.SelectSeeds(GreedyOptions{K: 2})
		if res.Seeds[0] != 0 || res.Seeds[1] != 2 {
			t.Fatalf("greedy picked %v", res.Seeds)
		}
		if res.Coverage[1] != 6 {
			t.Fatalf("total coverage %d", res.Coverage[1])
		}
	}
}

func TestGreedyApproximationGuarantee(t *testing.T) {
	// Random instances: greedy coverage >= (1-1/e) of the exhaustive
	// optimum — in fact (1-(1-1/k)^k); check against brute force.
	r := rng.New(1)
	for trial := 0; trial < 30; trial++ {
		n := 6 + r.Intn(5)
		numSets := 5 + r.Intn(25)
		sets := make([][]int32, numSets)
		for i := range sets {
			sz := 1 + r.Intn(3)
			seen := map[int32]bool{}
			for len(seen) < sz {
				seen[int32(r.Intn(n))] = true
			}
			for v := range seen {
				sets[i] = append(sets[i], v)
			}
		}
		k := 1 + r.Intn(3)
		for _, x := range exactFromSets(n, nil, sets) {
			res := x.SelectSeeds(GreedyOptions{K: k})
			opt := bruteBestK(n, sets, k)
			if float64(res.TotalCoverage(0)) < (1-1.0/2.718281829)*float64(opt)-1e-9 {
				t.Fatalf("trial %d: greedy %d below (1-1/e)·opt (%d)", trial, res.TotalCoverage(0), opt)
			}
			if res.CoverageUpper < opt {
				t.Fatalf("trial %d: upper bound %d below optimum %d", trial, res.CoverageUpper, opt)
			}
		}
	}
}

// naiveGreedy is an eager reference implementation used to validate the
// lazy CELF path.
func naiveGreedy(n int, sets [][]int32, k int, outDeg []int32) []int32 {
	covered := make([]bool, len(sets))
	var seeds []int32
	chosen := make([]bool, n)
	for round := 0; round < k && round < n; round++ {
		bestV, bestGain := int32(-1), int64(-1)
		for v := int32(0); v < int32(n); v++ {
			if chosen[v] {
				continue
			}
			var gain int64
			for i, set := range sets {
				if covered[i] {
					continue
				}
				for _, u := range set {
					if u == v {
						gain++
						break
					}
				}
			}
			better := gain > bestGain
			if gain == bestGain && outDeg != nil && bestV >= 0 && outDeg[v] > outDeg[bestV] {
				better = true
			}
			if better {
				bestV, bestGain = v, gain
			}
		}
		chosen[bestV] = true
		seeds = append(seeds, bestV)
		for i, set := range sets {
			if covered[i] {
				continue
			}
			for _, u := range set {
				if u == bestV {
					covered[i] = true
					break
				}
			}
		}
	}
	return seeds
}

// refEntry and refHeap are the reference lazy greedy's CELF heap over
// container/heap, in the (gain, out-degree, id) order the exact engine's
// bucket queue replaced.
type refEntry struct {
	gain       int64
	node, iter int32
}

type refHeap struct {
	e      []refEntry
	outDeg []int32 // nil disables the out-degree tie-break
}

func (h *refHeap) Len() int { return len(h.e) }
func (h *refHeap) Less(i, j int) bool {
	a, b := h.e[i], h.e[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if h.outDeg != nil && h.outDeg[a.node] != h.outDeg[b.node] {
		return h.outDeg[a.node] > h.outDeg[b.node]
	}
	return a.node < b.node
}
func (h *refHeap) Swap(i, j int) { h.e[i], h.e[j] = h.e[j], h.e[i] }
func (h *refHeap) Push(x any)    { h.e = append(h.e, x.(refEntry)) }
func (h *refHeap) Pop() any {
	top := h.e[len(h.e)-1]
	h.e = h.e[:len(h.e)-1]
	return top
}

// refLazyGreedy is the lazy greedy the exact engine ran before its
// bucket queue: pop the heap top, recompute and push it back while it is
// stale, take it once fresh or zero, and tighten Λᵘ at prefix 0, every
// power of two and k with the topL largest stored gains.
func refLazyGreedy(n int, sets [][]int32, outDeg []int32, opt GreedyOptions) GreedyResult {
	k, topL, tie := selectParams(opt, n, outDeg)
	covered := make([]bool, len(sets))
	marginal := func(v int32) int64 {
		var g int64
		for i, set := range sets {
			if !covered[i] && slices.Contains(set, v) {
				g++
			}
		}
		return g
	}
	h := &refHeap{outDeg: tie}
	for v := int32(0); v < int32(n); v++ {
		if opt.Exclude == nil || !opt.Exclude[v] {
			h.e = append(h.e, refEntry{gain: marginal(v), node: v})
		}
	}
	heap.Init(h)
	res := GreedyResult{CoverageUpper: int64(len(sets)) + opt.Base}
	upper := func(cum int64) {
		gains := make([]int64, len(h.e))
		for i, e := range h.e {
			gains[i] = e.gain
		}
		res.tightenUpper(opt.Base + cum + refTopSum(gains, topL))
	}
	upper(0)
	var cum int64
	nextBoundAt := 1
	for round := int32(1); int(round) <= k && h.Len() > 0; round++ {
		var pick refEntry
		for {
			pick = heap.Pop(h).(refEntry)
			if pick.iter == round-1 || pick.gain == 0 {
				break
			}
			pick.gain, pick.iter = marginal(pick.node), round-1
			heap.Push(h, pick)
		}
		for i, set := range sets {
			if !covered[i] && slices.Contains(set, pick.node) {
				covered[i] = true
				cum++
			}
		}
		res.Seeds = append(res.Seeds, pick.node)
		res.Coverage = append(res.Coverage, opt.Base+cum)
		if int(round) == nextBoundAt || int(round) == k {
			upper(cum)
			nextBoundAt *= 2
		}
	}
	return res
}

// TestLazyGreedyMatchesEagerGreedy quick-checks the exact engine's lazy
// greedy on every shard count exactFromSets builds and under both forms
// of the queue's top bucket: its Seeds, Coverage and CoverageUpper must
// equal refLazyGreedy's, and without exclusions its seeds must be the
// eager greedy sequence (with matching tie-breaks). Out-degrees draw
// from three values, so the Revised tie-break sees many ties. The last
// two nodes are in no set, so K = n exceeds the positive-gain candidates
// and reaches the zero gains.
func TestLazyGreedyMatchesEagerGreedy(t *testing.T) {
	restoreBucketShift(t)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 6 + r.Intn(12)
		numSets := r.Intn(40)
		sets := make([][]int32, numSets)
		for i := range sets {
			sz := 1 + r.Intn(4)
			seen := map[int32]bool{}
			for len(seen) < sz {
				seen[int32(r.Intn(n-2))] = true
			}
			for v := range seen {
				sets[i] = append(sets[i], v)
			}
		}
		outDeg := make([]int32, n)
		exclude := make([]bool, n)
		for v := range outDeg {
			outDeg[v] = int32(r.Intn(3))
			exclude[v] = r.Intn(4) == 0
		}
		k := 1 + r.Intn(n)
		for _, revised := range []bool{false, true} {
			var od []int32
			if revised {
				od = outDeg
			}
			opts := []GreedyOptions{
				{K: k, Revised: revised},
				{K: n, Revised: revised},
				{K: k, Revised: revised, Exclude: exclude, Base: 5, TopL: k + 2},
				{K: k, Revised: revised, Exclude: exclude, Base: 2, TopL: 1 + r.Intn(k)},
			}
			for _, x := range exactFromSets(n, od, sets) {
				for i, opt := range opts {
					sparseBucketShift = bucketShifts[(uint64(i)+seed)%uint64(len(bucketShifts))]
					got := x.SelectSeeds(opt)
					want := refLazyGreedy(n, sets, od, opt)
					if !slices.Equal(got.Seeds, want.Seeds) || !slices.Equal(got.Coverage, want.Coverage) ||
						got.CoverageUpper != want.CoverageUpper {
						t.Logf("S=%d shift=%d opt=%+v: got %v %v upper %d, reference %v %v upper %d", x.NumShards(), sparseBucketShift, opt,
							got.Seeds, got.Coverage, got.CoverageUpper, want.Seeds, want.Coverage, want.CoverageUpper)
						return false
					}
					if opt.Exclude == nil && !slices.Equal(got.Seeds, naiveGreedy(n, sets, opt.K, od)) {
						t.Logf("S=%d opt=%+v: seeds %v differ from the eager greedy", x.NumShards(), opt, got.Seeds)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRevisedTieBreakPrefersOutDegree(t *testing.T) {
	// Nodes 0 and 1 cover the same single set; node 1 has the larger
	// out-degree and must win under Revised greedy.
	sets := [][]int32{{0, 1}}
	outDeg := []int32{1, 5, 0}
	for _, x := range exactFromSets(3, outDeg, sets) {
		res := x.SelectSeeds(GreedyOptions{K: 1, Revised: true})
		if res.Seeds[0] != 1 {
			t.Fatalf("revised greedy picked %d", res.Seeds[0])
		}
		// Classic greedy breaks ties by id instead.
		res = x.SelectSeeds(GreedyOptions{K: 1})
		if res.Seeds[0] != 0 {
			t.Fatalf("classic greedy picked %d", res.Seeds[0])
		}
	}
}

func TestRevisedWithoutOutDegPanics(t *testing.T) {
	for _, x := range exactFromSets(2, nil, [][]int32{{0}}) {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("S=%d: Revised without out-degrees did not panic", x.NumShards())
				}
			}()
			x.SelectSeeds(GreedyOptions{K: 1, Revised: true})
		}()
	}
}

func TestBaseOffset(t *testing.T) {
	sets := [][]int32{{0}, {1}}
	for _, x := range exactFromSets(2, nil, sets) {
		res := x.SelectSeeds(GreedyOptions{K: 2, Base: 10})
		if res.Coverage[0] != 11 || res.Coverage[1] != 12 {
			t.Fatalf("coverage with base: %v", res.Coverage)
		}
		if res.CoverageUpper < 12 {
			t.Fatalf("upper bound %d below achievable 12", res.CoverageUpper)
		}
		if res.TotalCoverage(10) != 12 {
			t.Fatalf("TotalCoverage %d", res.TotalCoverage(10))
		}
	}
}

func TestTotalCoverageEmpty(t *testing.T) {
	for _, x := range exactFromSets(3, nil, nil) {
		res := x.SelectSeeds(GreedyOptions{K: 0, Base: 7})
		if res.TotalCoverage(7) != 7 {
			t.Fatal("empty selection should return base")
		}
	}
}

func TestTopLBound(t *testing.T) {
	// With TopL=2 the prefix-0 bound is the two largest degrees.
	sets := [][]int32{{0}, {0}, {1}, {2}}
	for _, x := range exactFromSets(3, nil, sets) {
		res := x.SelectSeeds(GreedyOptions{K: 1, TopL: 2})
		// Upper bound candidates: prefix 0 → 2+1 = 3; after pick (node 0,
		// cum 2) → 2 + (1+1) = 4. Min is 3.
		if res.CoverageUpper != 3 {
			t.Fatalf("TopL bound %d, want 3", res.CoverageUpper)
		}
	}
}

func TestUpperBoundDominatesAnyKSet(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(6)
		numSets := 1 + r.Intn(30)
		sets := make([][]int32, numSets)
		for i := range sets {
			sz := 1 + r.Intn(3)
			seen := map[int32]bool{}
			for len(seen) < sz {
				seen[int32(r.Intn(n))] = true
			}
			for v := range seen {
				sets[i] = append(sets[i], v)
			}
		}
		k := 1 + r.Intn(3)
		best := bruteBestK(n, sets, k)
		for _, x := range exactFromSets(n, nil, sets) {
			if x.SelectSeeds(GreedyOptions{K: k}).CoverageUpper < best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectSeedsClampsK(t *testing.T) {
	for _, x := range exactFromSets(3, nil, [][]int32{{0}}) {
		res := x.SelectSeeds(GreedyOptions{K: 10})
		if len(res.Seeds) != 3 {
			t.Fatalf("selected %d seeds", len(res.Seeds))
		}
		res = x.SelectSeeds(GreedyOptions{K: -1})
		if len(res.Seeds) != 0 {
			t.Fatal("negative k selected seeds")
		}
	}
}

func TestRepeatedSelectionsAreIndependent(t *testing.T) {
	sets := [][]int32{{0, 1}, {1, 2}, {2}}
	for _, x := range exactFromSets(3, nil, sets) {
		first := x.SelectSeeds(GreedyOptions{K: 2})
		// Growing the index and re-selecting must reflect the new state and
		// not any leftover covered marks.
		x.Add(rrset.RRSet{0})
		x.Add(rrset.RRSet{0})
		second := x.SelectSeeds(GreedyOptions{K: 2})
		if second.Seeds[0] != 0 {
			t.Fatalf("after growth, first pick %d", second.Seeds[0])
		}
		if first.TotalCoverage(0) != 3 {
			t.Fatalf("first selection coverage %d", first.TotalCoverage(0))
		}
		if second.TotalCoverage(0) != 5 {
			t.Fatalf("second selection coverage %d", second.TotalCoverage(0))
		}
	}
}

func TestExcludeSkipsNodes(t *testing.T) {
	sets := [][]int32{{0}, {0}, {1}}
	for _, x := range exactFromSets(3, []int32{9, 1, 5}, sets) {
		res := x.SelectSeeds(GreedyOptions{K: 2, Revised: true, Exclude: []bool{true, false, false}})
		for _, s := range res.Seeds {
			if s == 0 {
				t.Fatalf("excluded node selected: %v", res.Seeds)
			}
		}
		if len(res.Seeds) != 2 {
			t.Fatalf("selected %v", res.Seeds)
		}
		if res.Seeds[0] != 1 {
			t.Fatalf("first pick %d, want 1", res.Seeds[0])
		}
	}
}
