package subsim_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"subsim"
)

// TestPublicAPISurface exercises the facade helpers end-to-end.
func TestPublicAPISurface(t *testing.T) {
	g, err := subsim.GenErdosRenyi(500, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()

	gen := subsim.NewRRGenerator(g, subsim.GenSubsim)
	sets := subsim.SampleRRSets(gen, 250, 2)
	if len(sets) != 250 {
		t.Fatalf("SampleRRSets returned %d sets", len(sets))
	}
	st := subsim.RRStats(gen)
	if st.Sets != 250 || st.AvgSize() <= 0 {
		t.Fatalf("RRStats = %+v", st)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := subsim.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("LoadGraph round-trip mismatch")
	}
	if _, err := subsim.LoadGraph(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}

	b := subsim.NewBuilder(3)
	if err := b.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if b.Build().N() != 3 {
		t.Fatal("builder facade broken")
	}
}

func TestAssignSkewedFacade(t *testing.T) {
	g, err := subsim.GenErdosRenyi(200, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []subsim.WeightModel{subsim.ModelExponential, subsim.ModelWeibull} {
		if err := subsim.AssignSkewed(g, m, 4); err != nil {
			t.Fatal(err)
		}
		if g.Model() != m {
			t.Fatalf("model = %v, want %v", g.Model(), m)
		}
	}
	if err := subsim.AssignSkewed(g, subsim.ModelWC, 4); err == nil {
		t.Fatal("AssignSkewed accepted a non-skewed model")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[subsim.Algorithm]string{
		subsim.AlgIMM: "IMM", subsim.AlgSSA: "SSA", subsim.AlgOPIMC: "OPIM-C",
		subsim.AlgSUBSIM: "SUBSIM", subsim.AlgHIST: "HIST",
		subsim.AlgHISTSubsim: "HIST+SUBSIM", subsim.AlgTIMPlus: "TIM+",
		subsim.Algorithm(99): "Algorithm(99)",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
}

func TestMaximizeUnknownAlgorithm(t *testing.T) {
	g, err := subsim.GenErdosRenyi(100, 500, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	if _, err := subsim.Maximize(g, subsim.Algorithm(99), subsim.Options{K: 2, Eps: 0.2}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	gen := subsim.NewRRGenerator(g, subsim.GenVanilla)
	if _, err := subsim.MaximizeWith(gen, subsim.Algorithm(99), subsim.Options{K: 2, Eps: 0.2}); err == nil {
		t.Fatal("unknown algorithm accepted by MaximizeWith")
	}
}

// TestLTEndToEnd runs the full pipeline under the Linear Threshold model
// and verifies the seed quality by forward LT simulation.
func TestLTEndToEnd(t *testing.T) {
	g, err := subsim.GenPreferentialAttachment(2500, 5, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignLT()
	gen := subsim.NewRRGenerator(g, subsim.GenLT)
	for _, alg := range []subsim.Algorithm{subsim.AlgOPIMC, subsim.AlgHIST} {
		res, err := subsim.MaximizeWith(gen.Clone(), alg, subsim.Options{K: 10, Eps: 0.3, Seed: 9, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		spread := subsim.EstimateInfluence(g, res.Seeds, 4000, subsim.LT, 10)
		random := subsim.EstimateInfluence(g, []int32{500, 501, 502, 503, 504, 505, 506, 507, 508, 509}, 4000, subsim.LT, 10)
		if spread <= random {
			t.Fatalf("%v: LT spread %v not above random %v", alg, spread, random)
		}
	}
}

// TestSkewedEndToEnd runs the general-IC pipeline on exponential weights
// and cross-checks the index-free SUBSIM generator's seed quality against
// vanilla's.
func TestSkewedEndToEnd(t *testing.T) {
	g, err := subsim.GenPreferentialAttachment(2500, 6, false, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := subsim.AssignSkewed(g, subsim.ModelExponential, 12); err != nil {
		t.Fatal(err)
	}
	opt := subsim.Options{K: 10, Eps: 0.3, Seed: 13, Workers: 2}
	spreads := map[subsim.GeneratorKind]float64{}
	for _, kind := range []subsim.GeneratorKind{subsim.GenSubsim, subsim.GenVanilla} {
		res, err := subsim.MaximizeWith(subsim.NewRRGenerator(g, kind), subsim.AlgOPIMC, opt)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		spreads[kind] = subsim.EstimateInfluence(g, res.Seeds, 4000, subsim.IC, 14)
	}
	base := spreads[subsim.GenVanilla]
	for kind, s := range spreads {
		if math.Abs(s-base) > 0.1*base {
			t.Fatalf("%v spread %v deviates from vanilla %v", kind, s, base)
		}
	}
}

func TestTIMPlusFacade(t *testing.T) {
	g, err := subsim.GenPreferentialAttachment(1200, 4, false, 15)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	res, err := subsim.Maximize(g, subsim.AlgTIMPlus, subsim.Options{K: 5, Eps: 0.3, Seed: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("%d seeds", len(res.Seeds))
	}
}

// TestMaximizeDeterministicAcrossCalls pins full-run determinism at the
// facade level for every algorithm.
func TestMaximizeDeterministicAcrossCalls(t *testing.T) {
	g, err := subsim.GenPreferentialAttachment(1200, 4, false, 17)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWCVariant(2)
	opt := subsim.Options{K: 6, Eps: 0.3, Seed: 18, Workers: 3}
	for _, alg := range []subsim.Algorithm{
		subsim.AlgIMM, subsim.AlgSSA, subsim.AlgOPIMC, subsim.AlgSUBSIM,
		subsim.AlgHIST, subsim.AlgHISTSubsim, subsim.AlgTIMPlus,
	} {
		a, err := subsim.Maximize(g, alg, opt)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		b, err := subsim.Maximize(g, alg, opt)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for i := range a.Seeds {
			if a.Seeds[i] != b.Seeds[i] {
				t.Fatalf("%v: runs diverged at seed %d", alg, i)
			}
		}
	}
}

// TestIsolatedNodesGraph exercises the degenerate graph with no edges:
// every RR set is a singleton, influence of any k-set is exactly k.
func TestIsolatedNodesGraph(t *testing.T) {
	g := subsim.NewBuilder(50).Build()
	g.AssignWC()
	for _, alg := range []subsim.Algorithm{subsim.AlgOPIMC, subsim.AlgHIST, subsim.AlgSUBSIM} {
		res, err := subsim.Maximize(g, alg, subsim.Options{K: 3, Eps: 0.3, Seed: 19, Workers: 1})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Seeds) != 3 {
			t.Fatalf("%v: %d seeds", alg, len(res.Seeds))
		}
		if spread := subsim.EstimateInfluence(g, res.Seeds, 100, subsim.IC, 20); spread != 3 {
			t.Fatalf("%v: spread %v on edgeless graph", alg, spread)
		}
	}
}

// TestFacadeGeneratorsAndHeuristics covers the remaining public surface:
// the extra generators, graph stats, heuristics, and the oracle.
func TestFacadeGeneratorsAndHeuristics(t *testing.T) {
	ws, err := subsim.GenWattsStrogatz(300, 3, 0.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	if ws.N() != 300 {
		t.Fatal("WS size wrong")
	}
	sbm, err := subsim.GenSBM(subsim.SBMParams{Sizes: []int{100, 100}, PIn: 0.05, POut: 0.005}, 22)
	if err != nil {
		t.Fatal(err)
	}
	sbm.AssignWC()
	stats := sbm.ComputeStats()
	if stats.N != 200 || stats.M != sbm.M() {
		t.Fatalf("stats %+v", stats)
	}

	for _, h := range subsim.Heuristics {
		seeds, err := subsim.SelectHeuristic(sbm, h, 5)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if len(seeds) != 5 {
			t.Fatalf("%s: %d seeds", h, len(seeds))
		}
	}
	if _, err := subsim.SelectHeuristic(sbm, "bogus", 5); err == nil {
		t.Fatal("bogus heuristic accepted")
	}

	o, err := subsim.NewInfluenceOracle(subsim.NewRRGenerator(sbm, subsim.GenSubsim), 5000, 23)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int32{0, 100}
	est := o.Estimate(seeds)
	lo, hi := o.Interval(seeds, 0.05)
	if lo > est || hi < est || est <= 0 {
		t.Fatalf("oracle inconsistency: est %v in [%v,%v]", est, lo, hi)
	}
	if _, err := subsim.NewInfluenceOracleWithPrecision(
		subsim.NewRRGenerator(sbm, subsim.GenSubsim), 0.5, 0.1, 50, 24); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateInfluenceIntervalFacade(t *testing.T) {
	g, err := subsim.GenPreferentialAttachment(800, 4, false, 30)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	point := subsim.EstimateInfluence(g, []int32{0, 1}, 20000, subsim.IC, 31)
	iv := subsim.EstimateInfluenceInterval(g, []int32{0, 1}, 20000, subsim.IC, 0.99, 31)
	if iv.Lo > point || iv.Hi < point {
		t.Fatalf("interval [%v,%v] excludes the point estimate %v", iv.Lo, iv.Hi, point)
	}
}

func TestLoadSNAPFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(path, []byte("# snap dump\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := subsim.LoadSNAP(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	und, err := subsim.LoadSNAP(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if und.M() != 6 {
		t.Fatalf("undirected m=%d", und.M())
	}
	sub, orig, err := und.CompactLargestWCC()
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || len(orig) != 3 {
		t.Fatal("compact failed")
	}
	if _, err := subsim.LoadSNAP(filepath.Join(dir, "missing"), false); err == nil {
		t.Fatal("missing file accepted")
	}
}
