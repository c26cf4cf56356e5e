package rrset

import (
	"math"
	"testing"

	"subsim/internal/diffusion"
	"subsim/internal/graph"
	"subsim/internal/rng"
)

// allGenerators returns every IC generator kind over g, keyed by name.
// NewSubsim comes first because it may sort g's in-edges in place, and
// the bucketed samplers address in-edges by position, so they must be
// built over the final order.
func allGenerators(g *graph.Graph) map[string]Generator {
	sub := NewSubsim(g)
	return map[string]Generator{
		"subsim":   sub,
		"vanilla":  NewVanilla(g),
		"bucketed": NewSubsimBucketed(g, false),
		"jump":     NewSubsimBucketed(g, true),
	}
}

func TestRRSetContainsRootFirst(t *testing.T) {
	g := graph.GenLine(10, 1)
	for name, gen := range allGenerators(g) {
		r := rng.New(1)
		set := gen.Generate(r, 7, nil)
		if len(set) == 0 || set[0] != 7 {
			t.Fatalf("%s: root not first: %v", name, set)
		}
	}
}

func TestRRSetNoDuplicates(t *testing.T) {
	r := rng.New(2)
	g, err := graph.GenErdosRenyi(60, 500, r)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWCVariant(3)
	for name, gen := range allGenerators(g) {
		for i := 0; i < 300; i++ {
			set := GenerateRandom(gen, r, nil)
			seen := map[int32]bool{}
			for _, v := range set {
				if seen[v] {
					t.Fatalf("%s: duplicate node %d in %v", name, v, set)
				}
				seen[v] = true
			}
		}
	}
}

// TestLineGraphClosedForm checks RR membership against the closed form on
// a directed line: on 0→1→…→root with edge probability p, node root-j is
// in the RR set of root with probability p^j.
func TestLineGraphClosedForm(t *testing.T) {
	const n, p = 8, 0.6
	g := graph.GenLine(n, p)
	root := int32(n - 1)
	const draws = 120000
	for name, gen := range allGenerators(g) {
		r := rng.New(3)
		counts := make([]int, n)
		for d := 0; d < draws; d++ {
			for _, v := range gen.Generate(r, root, nil) {
				counts[v]++
			}
		}
		for j := 0; j < n; j++ {
			want := math.Pow(p, float64(int(root)-j))
			got := float64(counts[int(root)-(int(root)-j)]) / draws
			_ = got
			gotJ := float64(counts[j]) / draws
			tol := 5*math.Sqrt(want*(1-want)/draws) + 1e-3
			if math.Abs(gotJ-want) > tol {
				t.Fatalf("%s: node %d membership %v, want %v ± %v", name, j, gotJ, want, tol)
			}
		}
	}
}

// TestLemma1AllGenerators verifies n·Pr[S ∩ R ≠ ∅] ≈ I(S) (paper
// Lemma 1) for every generator against forward Monte-Carlo simulation,
// under both an equal-probability and a skewed weight model.
func TestLemma1AllGenerators(t *testing.T) {
	r := rng.New(4)
	g, err := graph.GenErdosRenyi(80, 600, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"wc-variant", "exponential"} {
		if model == "wc-variant" {
			g.AssignWCVariant(2)
		} else {
			g.AssignExponential(r, 1)
		}
		seeds := []int32{3, 17, 42}
		fwd := diffusion.EstimateParallel(g, seeds, 60000, diffusion.IC, 9, 2)
		inSeed := make([]bool, g.N())
		for _, s := range seeds {
			inSeed[s] = true
		}
		for name, gen := range allGenerators(g) {
			rr := rng.New(5)
			const draws = 60000
			covered := 0
			for d := 0; d < draws; d++ {
				set := GenerateRandom(gen, rr, nil)
				for _, v := range set {
					if inSeed[v] {
						covered++
						break
					}
				}
			}
			rev := float64(covered) / draws * float64(g.N())
			if math.Abs(rev-fwd) > 0.05*fwd+1.5 {
				t.Fatalf("%s/%s: reverse estimate %v vs forward %v", name, model, rev, fwd)
			}
		}
	}
}

// TestGeneratorsAgreeOnAvgSize cross-checks the average RR set size of
// all generators under WC: they sample from the same distribution.
func TestGeneratorsAgreeOnAvgSize(t *testing.T) {
	r := rng.New(6)
	g, err := graph.GenPreferentialAttachment(400, 4, false, r)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	sizes := map[string]float64{}
	for name, gen := range allGenerators(g) {
		rr := rng.New(7)
		const draws = 30000
		for d := 0; d < draws; d++ {
			GenerateRandom(gen, rr, nil)
		}
		st := gen.Stats()
		if st.Sets != draws {
			t.Fatalf("%s: stats counted %d sets", name, st.Sets)
		}
		sizes[name] = st.AvgSize()
	}
	base := sizes["vanilla"]
	for name, s := range sizes {
		if math.Abs(s-base) > 0.05*base+0.05 {
			t.Fatalf("%s avg size %v deviates from vanilla %v", name, s, base)
		}
	}
}

func TestSentinelRootHit(t *testing.T) {
	g := graph.GenComplete(5, 1)
	sentinel := make([]bool, 5)
	sentinel[2] = true
	for name, gen := range allGenerators(g) {
		r := rng.New(8)
		set := gen.Generate(r, 2, sentinel)
		if len(set) != 1 || set[0] != 2 {
			t.Fatalf("%s: sentinel root should yield {root}, got %v", name, set)
		}
	}
}

// TestSentinelStopsTraversal checks the Algorithm 5 semantics: on a
// complete graph with p=1 the full RR set is everything, but with a
// sentinel the set must end at the first sentinel activation.
func TestSentinelStopsTraversal(t *testing.T) {
	const n = 30
	g := graph.GenComplete(n, 1)
	sentinel := make([]bool, n)
	sentinel[5] = true
	for name, gen := range allGenerators(g) {
		r := rng.New(9)
		set := gen.Generate(r, 0, sentinel)
		if len(set) == int(n) {
			t.Fatalf("%s: sentinel did not shorten the traversal", name)
		}
		if set[len(set)-1] != 5 {
			t.Fatalf("%s: truncated set does not end at the sentinel: %v", name, set)
		}
	}
}

// TestSentinelHitProbabilityMatchesCoverage verifies that the
// early-stopped generator hits a sentinel set S exactly as often as full
// RR sets intersect S — the property HIST's correctness rests on.
func TestSentinelHitProbabilityMatchesCoverage(t *testing.T) {
	r := rng.New(10)
	g, err := graph.GenErdosRenyi(70, 500, r)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWCVariant(2)
	seeds := []int32{1, 8, 20}
	sentinel := make([]bool, g.N())
	for _, s := range seeds {
		sentinel[s] = true
	}
	const draws = 80000
	for name, gen := range allGenerators(g) {
		full := rng.New(11)
		coveredFull := 0
		for d := 0; d < draws; d++ {
			set := GenerateRandom(gen, full, nil)
			for _, v := range set {
				if sentinel[v] {
					coveredFull++
					break
				}
			}
		}
		stopped := rng.New(12)
		hits := 0
		for d := 0; d < draws; d++ {
			set := GenerateRandom(gen, stopped, sentinel)
			if sentinel[set[len(set)-1]] {
				hits++
			}
		}
		pFull := float64(coveredFull) / draws
		pHit := float64(hits) / draws
		tol := 6*math.Sqrt(pFull*(1-pFull)/draws)*2 + 1e-3
		if math.Abs(pFull-pHit) > tol {
			t.Fatalf("%s: full coverage %v vs sentinel hit rate %v (tol %v)", name, pFull, pHit, tol)
		}
	}
}

// TestSentinelReducesAvgSize checks the headline effect of Algorithm 5 on
// a high-influence graph: sentinel-terminated RR sets are much smaller.
func TestSentinelReducesAvgSize(t *testing.T) {
	r := rng.New(13)
	g, err := graph.GenPreferentialAttachment(500, 6, false, r)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWCVariant(4) // high influence
	gen := NewVanilla(g)
	rr := rng.New(14)
	const draws = 4000
	for d := 0; d < draws; d++ {
		GenerateRandom(gen, rr, nil)
	}
	fullSize := gen.Stats().AvgSize()

	// Sentinels: the 5 largest out-degree hubs.
	sentinel := make([]bool, g.N())
	type hub struct {
		v int32
		d int
	}
	best := make([]hub, 5)
	for v := int32(0); v < int32(g.N()); v++ {
		d := g.OutDegree(v)
		for i := range best {
			if d > best[i].d {
				copy(best[i+1:], best[i:len(best)-1])
				best[i] = hub{v, d}
				break
			}
		}
	}
	for _, h := range best {
		sentinel[h.v] = true
	}
	gen.ResetStats()
	for d := 0; d < draws; d++ {
		GenerateRandom(gen, rr, sentinel)
	}
	stopSize := gen.Stats().AvgSize()
	if stopSize > fullSize/2 {
		t.Fatalf("sentinel barely reduced avg size: %v vs %v", stopSize, fullSize)
	}
}

func TestVanillaEdgesExaminedAccounting(t *testing.T) {
	// On a line with p=1 from root n-1, every node activates and each
	// examines exactly its in-degree (1, except node 0).
	const n = 12
	g := graph.GenLine(n, 1)
	gen := NewVanilla(g)
	r := rng.New(15)
	set := gen.Generate(r, n-1, nil)
	if len(set) != n {
		t.Fatalf("p=1 line RR set size %d", len(set))
	}
	if got := gen.Stats().EdgesExamined; got != n-1 {
		t.Fatalf("edges examined %d, want %d", got, n-1)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rng.New(16)
	g, err := graph.GenErdosRenyi(40, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	for name, gen := range allGenerators(g) {
		clone := gen.Clone()
		rr := rng.New(17)
		gen.Generate(rr, 0, nil)
		if clone.Stats().Sets != 0 {
			t.Fatalf("%s: clone shares stats", name)
		}
		// Interleaved use must not corrupt either traversal's visited
		// state.
		a := gen.Generate(rng.New(18), 1, nil)
		b := clone.Generate(rng.New(18), 1, nil)
		if len(a) != len(b) {
			t.Fatalf("%s: same stream, different RR sets (%d vs %d)", name, len(a), len(b))
		}
	}
}

func TestStatsAddAndAvg(t *testing.T) {
	var s Stats
	if s.AvgSize() != 0 {
		t.Fatal("empty stats avg not 0")
	}
	s.Add(Stats{Sets: 2, Nodes: 10, EdgesExamined: 7})
	s.Add(Stats{Sets: 3, Nodes: 5, EdgesExamined: 3})
	if s.Sets != 5 || s.Nodes != 15 || s.EdgesExamined != 10 {
		t.Fatalf("Add result %+v", s)
	}
	if s.AvgSize() != 3 {
		t.Fatalf("AvgSize %v", s.AvgSize())
	}
}

func TestEpochWraparound(t *testing.T) {
	g := graph.GenLine(4, 1)
	gen := NewVanilla(g)
	gen.t.epoch = math.MaxUint32 - 1 // force a wrap within two generations
	r := rng.New(19)
	a := gen.Generate(r, 3, nil)
	b := gen.Generate(r, 3, nil)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("wraparound corrupted traversal: %v %v", a, b)
	}
}
