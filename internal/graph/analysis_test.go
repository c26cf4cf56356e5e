package graph

import (
	"testing"

	"subsim/internal/rng"
)

func TestSCCRing(t *testing.T) {
	g := GenRing(6, 1)
	comp, count := g.SCC()
	if count != 1 {
		t.Fatalf("ring has %d SCCs", count)
	}
	for _, c := range comp {
		if c != comp[0] {
			t.Fatal("ring nodes in different SCCs")
		}
	}
}

func TestSCCLine(t *testing.T) {
	g := GenLine(5, 1)
	_, count := g.SCC()
	if count != 5 {
		t.Fatalf("line has %d SCCs, want 5", count)
	}
}

func TestSCCTwoCycles(t *testing.T) {
	// Two 3-cycles joined by one edge: 2 SCCs, and the edge's direction
	// fixes the reverse-topological order.
	b := NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	comp, count := g.SCC()
	if count != 2 {
		t.Fatalf("%d SCCs, want 2", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("first cycle split")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Fatal("second cycle split")
	}
	// Edge 2→3 crosses components; Tarjan order has comp[2] > comp[3].
	if comp[2] <= comp[3] {
		t.Fatalf("reverse topological order violated: %v", comp)
	}
	if LargestComponentSize(comp, count) != 3 {
		t.Fatal("largest SCC size wrong")
	}
}

func TestSCCLargeRandomMatchesWCCBounds(t *testing.T) {
	r := rng.New(1)
	g, err := GenErdosRenyi(2000, 12000, r)
	if err != nil {
		t.Fatal(err)
	}
	_, nscc := g.SCC()
	_, nwcc := g.WCC()
	if nwcc > nscc {
		t.Fatalf("WCC count %d exceeds SCC count %d", nwcc, nscc)
	}
}

func TestWCC(t *testing.T) {
	// Two disjoint pieces.
	b := NewBuilder(5)
	if err := b.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(3, 4, 0.5); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	comp, count := g.WCC()
	if count != 3 {
		t.Fatalf("%d WCCs, want 3", count)
	}
	if comp[0] != comp[1] || comp[3] != comp[4] || comp[0] == comp[3] || comp[2] == comp[0] {
		t.Fatalf("WCC labels wrong: %v", comp)
	}
	if LargestComponentSize(comp, count) != 2 {
		t.Fatal("largest WCC wrong")
	}
}

func TestTopOutDegree(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1, 0.5}, {0, 2, 0.5}, {0, 3, 0.5}, {1, 2, 0.5}, {1, 3, 0.5}, {2, 3, 0.5}})
	top := g.TopOutDegree(2)
	if len(top) != 2 || top[0] != 0 || top[1] != 1 {
		t.Fatalf("TopOutDegree = %v", top)
	}
	if got := g.TopOutDegree(10); len(got) != 4 {
		t.Fatal("k > n not clamped")
	}
	if g.TopOutDegree(0) != nil {
		t.Fatal("k=0 should be nil")
	}
}

func TestComputeStats(t *testing.T) {
	g := GenRing(5, 0.5)
	s := g.ComputeStats()
	if s.N != 5 || s.M != 5 || s.SCCs != 1 || s.WCCs != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxOutDegree != 1 || s.MaxInDegree != 1 {
		t.Fatalf("stats degrees %+v", s)
	}
	if s.LargestSCC != 5 || s.LargestWCC != 5 {
		t.Fatalf("stats components %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestGenWattsStrogatz(t *testing.T) {
	r := rng.New(2)
	g, err := GenWattsStrogatz(200, 3, 0.1, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Fatalf("n = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Undirected ties: symmetric degrees; roughly 2·k·n directed edges
	// (rewiring collisions may drop a few).
	if g.M() < int64(2*3*200*8/10) {
		t.Fatalf("too few edges: %d", g.M())
	}
	for v := int32(0); v < int32(g.N()); v++ {
		if g.InDegree(v) != g.OutDegree(v) {
			t.Fatalf("node %d asymmetric", v)
		}
	}
	// Connected at beta=0 (pure ring lattice).
	g0, err := GenWattsStrogatz(50, 2, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, count := g0.WCC(); count != 1 {
		t.Fatalf("ring lattice has %d WCCs", count)
	}
	if _, err := GenWattsStrogatz(10, 0, 0.5, r); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := GenWattsStrogatz(10, 10, 0.5, r); err == nil {
		t.Error("k=n accepted")
	}
	if _, err := GenWattsStrogatz(10, 2, 1.5, r); err == nil {
		t.Error("beta>1 accepted")
	}
}

func TestGenSBM(t *testing.T) {
	r := rng.New(3)
	g, err := GenSBM(SBMParams{Sizes: []int{100, 100, 100}, PIn: 0.08, POut: 0.002}, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 300 {
		t.Fatalf("n = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Count in- vs cross-community edges; the in-community rate must
	// dominate despite fewer candidate pairs.
	within, across := 0, 0
	for _, e := range g.Edges() {
		if e.From/100 == e.To/100 {
			within++
		} else {
			across++
		}
	}
	// Expectations: within ≈ 3·100·99·0.08 ≈ 2376, across ≈ 3·100·200·0.002 = 120.
	if within < 2000 || within > 2800 {
		t.Fatalf("within-community edges %d outside expected band", within)
	}
	if across < 60 || across > 200 {
		t.Fatalf("cross-community edges %d outside expected band", across)
	}
	if _, err := GenSBM(SBMParams{Sizes: []int{0}, PIn: 0.1}, r); err == nil {
		t.Error("zero-size community accepted")
	}
	if _, err := GenSBM(SBMParams{}, r); err == nil {
		t.Error("empty SBM accepted")
	}
	if _, err := GenSBM(SBMParams{Sizes: []int{5}, PIn: 1.5}, r); err == nil {
		t.Error("PIn>1 accepted")
	}
}

func TestGenSBMDenseProbabilityOne(t *testing.T) {
	r := rng.New(4)
	g, err := GenSBM(SBMParams{Sizes: []int{10}, PIn: 1, POut: 0}, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 90 {
		t.Fatalf("PIn=1 single community should be complete: m=%d", g.M())
	}
}

func TestKCoreRing(t *testing.T) {
	// Directed ring: every node has total degree 2 and sits in the
	// 2-core.
	g := GenRing(8, 0.5)
	core := g.KCore()
	for v, c := range core {
		if c != 2 {
			t.Fatalf("ring node %d core %d, want 2", v, c)
		}
	}
}

func TestKCoreStarAndClique(t *testing.T) {
	// A 5-clique (undirected: both directions) with a pendant chain:
	// clique nodes have core 8 (total degree within clique = 2·4),
	// chain nodes peel off at low cores.
	b := NewBuilder(8)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if err := b.AddUndirected(u, v, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range [][2]int32{{4, 5}, {5, 6}, {6, 7}} {
		if err := b.AddUndirected(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	core := g.KCore()
	for v := 0; v < 5; v++ {
		if core[v] != 8 {
			t.Fatalf("clique node %d core %d, want 8", v, core[v])
		}
	}
	if core[7] != 2 {
		t.Fatalf("pendant end core %d, want 2", core[7])
	}
	if core[5] != 2 || core[6] != 2 {
		t.Fatalf("chain cores %d %d, want 2 2", core[5], core[6])
	}
}

func TestKCoreMatchesBruteForce(t *testing.T) {
	// Brute-force core numbers by repeated peeling on a random graph.
	r := rng.New(6)
	g, err := GenErdosRenyi(60, 300, r)
	if err != nil {
		t.Fatal(err)
	}
	fast := g.KCore()
	// Brute force: for each c, repeatedly remove nodes with total
	// degree < c; survivors have core >= c.
	n := g.N()
	totalDeg := func(alive []bool, v int32) int {
		d := 0
		targets, _ := g.OutNeighbors(v)
		for _, w := range targets {
			if alive[w] {
				d++
			}
		}
		sources, _ := g.InNeighbors(v)
		for _, w := range sources {
			if alive[w] {
				d++
			}
		}
		return d
	}
	slow := make([]int, n)
	for c := 1; ; c++ {
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		for changed := true; changed; {
			changed = false
			for v := int32(0); v < int32(n); v++ {
				if alive[v] && totalDeg(alive, v) < c {
					alive[v] = false
					changed = true
				}
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if alive[v] {
				slow[v] = c
				any = true
			}
		}
		if !any {
			break
		}
	}
	for v := 0; v < n; v++ {
		if fast[v] != slow[v] {
			t.Fatalf("node %d: fast core %d, brute force %d", v, fast[v], slow[v])
		}
	}
}
