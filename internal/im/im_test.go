package im

import (
	"math"
	"testing"

	"subsim/internal/diffusion"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

type algFunc func(gen rrset.Generator, opt Options) (*Result, error)

var algorithms = map[string]algFunc{
	"IMM":    IMM,
	"SSA":    SSA,
	"OPIM-C": OPIMC,
}

func testGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferentialAttachment(n, 4, false, rng.New(123))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	return g
}

func TestOptionsValidation(t *testing.T) {
	g := testGraph(t, 200)
	bad := []Options{
		{K: 0, Eps: 0.1},
		{K: 201, Eps: 0.1},
		{K: 5, Eps: 0},
		{K: 5, Eps: 1},
		{K: 5, Eps: 0.1, Delta: 1},
		{K: 5, Eps: 0.1, Delta: -0.5},
	}
	for name, alg := range algorithms {
		for _, opt := range bad {
			if _, err := alg(rrset.NewVanilla(g), opt); err == nil {
				t.Errorf("%s accepted invalid options %+v", name, opt)
			}
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	o := Options{K: 5, Eps: 0.1}
	if err := o.Normalize(100); err != nil {
		t.Fatal(err)
	}
	if o.Delta != 0.01 {
		t.Fatalf("default delta %v", o.Delta)
	}
	if o.Workers < 1 {
		t.Fatal("workers not defaulted")
	}
}

func TestStarGraphPicksCentre(t *testing.T) {
	g := graph.GenStar(200, 0.5)
	for name, alg := range algorithms {
		res, err := alg(rrset.NewVanilla(g), Options{K: 1, Eps: 0.3, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
			t.Errorf("%s picked %v, want centre 0", name, res.Seeds)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph(t, 800)
	for name, alg := range algorithms {
		opt := Options{K: 5, Eps: 0.2, Seed: 42, Workers: 2}
		a, err := alg(rrset.NewVanilla(g), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := alg(rrset.NewVanilla(g), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Seeds) != len(b.Seeds) {
			t.Fatalf("%s: seed counts differ", name)
		}
		for i := range a.Seeds {
			if a.Seeds[i] != b.Seeds[i] {
				t.Fatalf("%s: runs diverged at seed %d", name, i)
			}
		}
	}
}

// TestQualityAgainstMCGreedy compares each sampling algorithm's seed
// quality with the forward-MC CELF greedy on a small graph: the spread
// must reach at least 85% of greedy's.
func TestQualityAgainstMCGreedy(t *testing.T) {
	g := testGraph(t, 400)
	ref, err := GreedyMC(g, GreedyMCOptions{K: 5, Samples: 600, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	refSpread := diffusion.EstimateParallel(g, ref.Seeds, 30000, diffusion.IC, 8, 2)
	for name, alg := range algorithms {
		res, err := alg(rrset.NewVanilla(g), Options{K: 5, Eps: 0.15, Seed: 9, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spread := diffusion.EstimateParallel(g, res.Seeds, 30000, diffusion.IC, 8, 2)
		if spread < 0.85*refSpread {
			t.Errorf("%s spread %v below 85%% of MC greedy %v", name, spread, refSpread)
		}
	}
}

func TestOPIMCBoundsConsistent(t *testing.T) {
	g := testGraph(t, 600)
	res, err := OPIMC(rrset.NewVanilla(g), Options{K: 8, Eps: 0.2, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerBound > res.UpperBound {
		t.Fatalf("lower %v > upper %v", res.LowerBound, res.UpperBound)
	}
	if res.Approx <= 0 || res.Approx > 1 {
		t.Fatalf("approx ratio %v", res.Approx)
	}
	if res.LowerBound > res.Influence+1e-9 {
		t.Fatalf("lower bound %v above the point estimate %v", res.LowerBound, res.Influence)
	}
	if res.RRStats.Sets == 0 || res.Rounds == 0 {
		t.Fatal("cost accounting empty")
	}
	// The certified approximation should reach the target on this easy
	// instance (failure probability 1/n).
	if res.Approx < 1-1/math.E-0.2 {
		t.Fatalf("certified approx %v below target", res.Approx)
	}
}

func TestOPIMCWithSubsimAndRevised(t *testing.T) {
	g := testGraph(t, 600)
	res, err := OPIMC(rrset.NewSubsim(g), Options{K: 8, Eps: 0.2, Seed: 3, Workers: 2, Revised: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 8 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	spread := diffusion.EstimateParallel(g, res.Seeds, 20000, diffusion.IC, 5, 2)
	if spread < float64(res.LowerBound)*0.9 {
		t.Fatalf("forward spread %v far below certified lower bound %v", spread, res.LowerBound)
	}
}

func TestBatcherGenerateCountAndDeterminism(t *testing.T) {
	g := testGraph(t, 300)
	mk := func() *Batcher { return NewBatcher(rrset.NewVanilla(g), 5, 3) }
	a, b := mk(), mk()
	sa := a.Generate(100, nil)
	sb := b.Generate(100, nil)
	if len(sa) != 100 || len(sb) != 100 {
		t.Fatalf("counts %d %d", len(sa), len(sb))
	}
	for i := range sa {
		if len(sa[i]) != len(sb[i]) {
			t.Fatalf("batcher output not deterministic at %d", i)
		}
		for j := range sa[i] {
			if sa[i][j] != sb[i][j] {
				t.Fatalf("batcher output not deterministic at %d/%d", i, j)
			}
		}
	}
	if a.Generate(0, nil) != nil {
		t.Fatal("Generate(0) should be nil")
	}
	if a.Stats().Sets != 100 {
		t.Fatalf("stats %d", a.Stats().Sets)
	}
	a.ResetStats()
	if a.Stats().Sets != 0 {
		t.Fatal("reset failed")
	}
}

func TestFillIndexSentinelExclusion(t *testing.T) {
	g := graph.GenComplete(40, 1) // every full RR set covers everything
	batch := NewBatcher(rrset.NewVanilla(g), 1, 1)
	sentinel := make([]bool, 40)
	sentinel[0] = true
	idx := NewEstimator(40, nil, Options{Workers: 1}, nil)
	hits := mustFill(t, batch, idx, 200, sentinel)
	if hits+int64(idx.NumSets()) != 200 {
		t.Fatalf("hits %d + indexed %d != 200", hits, idx.NumSets())
	}
	// On p=1 complete graph every traversal reaches node 0, so all but
	// the sets rooted anywhere must hit... in fact every set hits.
	if hits != 200 {
		t.Fatalf("expected all sets to hit the sentinel, got %d", hits)
	}
}

func TestGreedyMCValidation(t *testing.T) {
	g := graph.GenStar(50, 0.4)
	if _, err := GreedyMC(g, GreedyMCOptions{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := GreedyMC(g, GreedyMCOptions{K: 51}); err == nil {
		t.Error("k>n accepted")
	}
	res, err := GreedyMC(g, GreedyMCOptions{K: 1, Samples: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("MC greedy picked %d on a star", res.Seeds[0])
	}
}

func TestGreedyMCLTModel(t *testing.T) {
	g := graph.GenStar(30, 0)
	g.AssignLT()
	res, err := GreedyMC(g, GreedyMCOptions{K: 1, Samples: 300, Seed: 2, Model: diffusion.LTModel})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("LT MC greedy picked %d", res.Seeds[0])
	}
}

func TestIMMOnLTModel(t *testing.T) {
	g := testGraph(t, 300)
	g.AssignLT()
	res, err := IMM(rrset.NewLT(g), Options{K: 4, Eps: 0.3, Seed: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 4 {
		t.Fatalf("%d seeds", len(res.Seeds))
	}
	spread := diffusion.EstimateParallel(g, res.Seeds, 20000, diffusion.LTModel, 7, 2)
	rnd := diffusion.EstimateParallel(g, []int32{100, 101, 102, 103}, 20000, diffusion.LTModel, 7, 2)
	if spread <= rnd {
		t.Fatalf("IMM-LT spread %v not above random %v", spread, rnd)
	}
}

func TestDoublingRounds(t *testing.T) {
	if doublingRounds(10, 10) != 1 || doublingRounds(10, 5) != 1 {
		t.Fatal("degenerate rounds")
	}
	if doublingRounds(1, 8) != 3 {
		t.Fatalf("rounds(1,8) = %d", doublingRounds(1, 8))
	}
	if doublingRounds(3, 100) != 6 {
		t.Fatalf("rounds(3,100) = %d", doublingRounds(3, 100))
	}
}

func TestVerifyStopsAtTarget(t *testing.T) {
	g := graph.GenComplete(30, 1)
	b := NewBatcher(rrset.NewVanilla(g), 1, 1)
	covered, used := b.verify([]int32{0}, 50, 10000)
	if covered < 50 {
		t.Fatalf("covered %d below target", covered)
	}
	if used > 1000 {
		t.Fatalf("verification overshot wildly: %d draws", used)
	}
	// Cap binds when the seeds never cover.
	g0 := graph.GenComplete(30, 0)
	b0 := NewBatcher(rrset.NewVanilla(g0), 1, 1)
	covered, used = b0.verify([]int32{0}, 50, 200)
	if used != 200 {
		t.Fatalf("cap not honoured: used %d", used)
	}
	if covered >= 50 {
		t.Fatalf("impossible coverage %d", covered)
	}
}

func TestTIMPlusBasic(t *testing.T) {
	g := testGraph(t, 500)
	res, err := TIMPlus(rrset.NewVanilla(g), Options{K: 5, Eps: 0.3, Seed: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("%d seeds", len(res.Seeds))
	}
	spread := diffusion.EstimateParallel(g, res.Seeds, 20000, diffusion.IC, 5, 2)
	ref, err := GreedyMC(g, GreedyMCOptions{K: 5, Samples: 500, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	refSpread := diffusion.EstimateParallel(g, ref.Seeds, 20000, diffusion.IC, 5, 2)
	if spread < 0.85*refSpread {
		t.Fatalf("TIM+ spread %v below 85%% of MC greedy %v", spread, refSpread)
	}
}

func TestTIMPlusStarPicksCentre(t *testing.T) {
	g := graph.GenStar(200, 0.5)
	res, err := TIMPlus(rrset.NewVanilla(g), Options{K: 1, Eps: 0.3, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("TIM+ picked %v", res.Seeds)
	}
}

func TestTIMPlusValidation(t *testing.T) {
	g := graph.GenStar(50, 0.5)
	if _, err := TIMPlus(rrset.NewVanilla(g), Options{K: 0, Eps: 0.1}); err == nil {
		t.Error("k=0 accepted")
	}
}
