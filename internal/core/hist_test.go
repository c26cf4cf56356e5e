package core

import (
	"testing"

	"subsim/internal/diffusion"
	"subsim/internal/graph"
	"subsim/internal/im"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

func highInfluenceGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferentialAttachment(n, 4, false, rng.New(321))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWCVariant(3)
	return g
}

func TestHISTBasicContract(t *testing.T) {
	g := highInfluenceGraph(t, 1500)
	opt := im.Options{K: 20, Eps: 0.2, Seed: 5, Workers: 2}
	res, err := HIST(rrset.NewVanilla(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != opt.K {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	seen := map[int32]bool{}
	for _, s := range res.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	if res.SentinelSize < 1 || res.SentinelSize > opt.K {
		t.Fatalf("sentinel size %d", res.SentinelSize)
	}
	if res.SentinelRR <= 0 {
		t.Fatal("no sentinel-phase RR accounting")
	}
	if res.RRStats.Sets <= 0 {
		t.Fatal("no RR stats")
	}
	if res.LowerBound > res.UpperBound {
		t.Fatalf("bounds inverted: %v > %v", res.LowerBound, res.UpperBound)
	}
}

func TestHISTQualityMatchesOPIMC(t *testing.T) {
	g := highInfluenceGraph(t, 2000)
	opt := im.Options{K: 20, Eps: 0.2, Seed: 6, Workers: 2}
	histRes, err := HIST(rrset.NewVanilla(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	opimRes, err := im.OPIMC(rrset.NewVanilla(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	histSpread := diffusion.EstimateParallel(g, histRes.Seeds, 20000, diffusion.IC, 7, 2)
	opimSpread := diffusion.EstimateParallel(g, opimRes.Seeds, 20000, diffusion.IC, 7, 2)
	if histSpread < 0.9*opimSpread {
		t.Fatalf("HIST spread %v below 90%% of OPIM-C %v", histSpread, opimSpread)
	}
}

func TestHISTReducesAvgRRSize(t *testing.T) {
	g := highInfluenceGraph(t, 2000)
	opt := im.Options{K: 50, Eps: 0.2, Seed: 8, Workers: 2}
	histRes, err := HIST(rrset.NewVanilla(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	opimRes, err := im.OPIMC(rrset.NewVanilla(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if histRes.RRStats.AvgSize() >= opimRes.RRStats.AvgSize() {
		t.Fatalf("HIST avg RR size %v not below OPIM-C %v",
			histRes.RRStats.AvgSize(), opimRes.RRStats.AvgSize())
	}
}

func TestHISTAllGeneratorKinds(t *testing.T) {
	g := highInfluenceGraph(t, 800)
	opt := im.Options{K: 10, Eps: 0.3, Seed: 9, Workers: 2}
	for _, kind := range []GeneratorKind{Vanilla, Subsim} {
		res, err := HIST(NewGenerator(g, kind), opt)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(res.Seeds) != opt.K {
			t.Fatalf("%v: %d seeds", kind, len(res.Seeds))
		}
	}
}

func TestHISTK1(t *testing.T) {
	g := highInfluenceGraph(t, 500)
	res, err := HIST(rrset.NewVanilla(g), im.Options{K: 1, Eps: 0.3, Seed: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 {
		t.Fatalf("%d seeds", len(res.Seeds))
	}
	if res.SentinelSize != 1 {
		t.Fatalf("sentinel size %d with k=1", res.SentinelSize)
	}
}

func TestHISTValidation(t *testing.T) {
	g := highInfluenceGraph(t, 100)
	if _, err := HIST(rrset.NewVanilla(g), im.Options{K: 0, Eps: 0.1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := HIST(rrset.NewVanilla(g), im.Options{K: 5, Eps: 2}); err == nil {
		t.Error("eps=2 accepted")
	}
}

func TestHISTDeterminism(t *testing.T) {
	g := highInfluenceGraph(t, 700)
	opt := im.Options{K: 8, Eps: 0.25, Seed: 77, Workers: 2}
	a, err := HIST(rrset.NewVanilla(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HIST(rrset.NewVanilla(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatal("nondeterministic seed count")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("runs diverged at %d", i)
		}
	}
	if a.SentinelSize != b.SentinelSize {
		t.Fatal("nondeterministic sentinel size")
	}
}

func TestSUBSIMConfiguration(t *testing.T) {
	g := highInfluenceGraph(t, 800)
	res, err := SUBSIM(g, im.Options{K: 10, Eps: 0.3, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 10 {
		t.Fatalf("%d seeds", len(res.Seeds))
	}
}

func TestHISTStarPicksCentreAsSentinel(t *testing.T) {
	g := graph.GenStar(400, 0.8)
	res, err := HIST(rrset.NewVanilla(g), im.Options{K: 3, Eps: 0.3, Seed: 12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("sentinel phase picked %d first, want the hub", res.Seeds[0])
	}
}

func TestGeneratorKindStrings(t *testing.T) {
	want := map[GeneratorKind]string{
		Vanilla: "vanilla", Subsim: "subsim", LTGen: "lt",
		GeneratorKind(42): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestNewGeneratorKinds(t *testing.T) {
	g := highInfluenceGraph(t, 100)
	if _, ok := NewGenerator(g, Vanilla).(*rrset.Vanilla); !ok {
		t.Error("Vanilla kind wrong type")
	}
	if _, ok := NewGenerator(g, Subsim).(*rrset.Subsim); !ok {
		t.Error("Subsim kind wrong type")
	}
	if _, ok := NewGenerator(g, LTGen).(*rrset.LT); !ok {
		t.Error("LT kind wrong type")
	}
}

func TestCeilLog2Ratio(t *testing.T) {
	if ceilLog2Ratio(8, 8) != 1 {
		t.Fatal("equal budgets")
	}
	if ceilLog2Ratio(1, 8) != 4 {
		t.Fatalf("ceilLog2Ratio(1,8) = %d", ceilLog2Ratio(1, 8))
	}
	if ceilLog2Ratio(10, 5) != 1 {
		t.Fatal("max below initial")
	}
}

func TestMarkSentinels(t *testing.T) {
	s := markSentinels(5, []int32{1, 3})
	want := []bool{false, true, false, true, false}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("markSentinels = %v", s)
		}
	}
}

// TestHISTWorkerCountInvariance smokes the full HIST pipeline (sentinel
// selection + IM-sentinel phase) and checks that W=2 and W=8 pick the
// same seeds.
func TestHISTWorkerCountInvariance(t *testing.T) {
	g := highInfluenceGraph(t, 1500)
	opt := im.Options{K: 20, Eps: 0.25, Seed: 5, Workers: 2}
	res, err := HIST(rrset.NewSubsim(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != opt.K {
		t.Fatalf("got %d seeds, want %d", len(res.Seeds), opt.K)
	}
	if res.Influence <= 0 || res.Influence > float64(g.N()) {
		t.Fatalf("influence %v out of range", res.Influence)
	}
	if res.ThetaWorstCase < 1 {
		t.Fatalf("sample budget not reported: worst %d", res.ThetaWorstCase)
	}
	// Same configuration must be deterministic across worker counts.
	opt.Workers = 8
	res8, err := HIST(rrset.NewSubsim(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res8.Seeds) != len(res.Seeds) {
		t.Fatalf("workers=8: %d seeds, want %d", len(res8.Seeds), len(res.Seeds))
	}
	for i := range res8.Seeds {
		if res8.Seeds[i] != res.Seeds[i] {
			t.Fatalf("workers=8: seed %d is %d, want %d", i, res8.Seeds[i], res.Seeds[i])
		}
	}
}
