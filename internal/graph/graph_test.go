package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"subsim/internal/rng"
)

func mustBuild(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.From, e.To, e.P); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 3, 0.5); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := b.AddEdge(-1, 0, 0.5); err == nil {
		t.Error("negative source accepted")
	}
	if err := b.AddEdge(1, 1, 0.5); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 1, 1.5); err == nil {
		t.Error("p > 1 accepted")
	}
	if err := b.AddEdge(0, 1, -0.1); err == nil {
		t.Error("p < 0 accepted")
	}
	if err := b.AddEdge(0, 1, math.NaN()); err == nil {
		t.Error("NaN probability accepted")
	}
	if err := b.AddEdge(0, 1, 0.5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func TestBuilderPanicsOnNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(-1) did not panic")
		}
	}()
	NewBuilder(-1)
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRStructure(t *testing.T) {
	g := mustBuild(t, 4, []Edge{
		{0, 1, 0.5}, {0, 2, 0.25}, {1, 2, 1}, {3, 2, 0.1}, {2, 0, 0.7},
	})
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 2 || g.InDegree(2) != 3 || g.InDegree(0) != 1 {
		t.Fatal("degree mismatch")
	}
	srcs, probs := g.InNeighbors(2)
	if len(srcs) != 3 || len(probs) != 3 {
		t.Fatalf("InNeighbors(2): %v %v", srcs, probs)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1.35) > 1e-12 {
		t.Fatalf("in-weight sum of node 2: %v", sum)
	}
	if g.SumInWeights(2) != sum {
		t.Fatal("SumInWeights mismatch")
	}
	targets, _ := g.OutNeighbors(0)
	if len(targets) != 2 {
		t.Fatalf("OutNeighbors(0): %v", targets)
	}
	if got := g.AvgDegree(); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("AvgDegree = %v", got)
	}
}

func TestDegreeSumsEqualM(t *testing.T) {
	r := rng.New(42)
	g, err := GenErdosRenyi(50, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	var inSum, outSum int64
	for v := int32(0); v < int32(g.N()); v++ {
		inSum += int64(g.InDegree(v))
		outSum += int64(g.OutDegree(v))
	}
	if inSum != g.M() || outSum != g.M() {
		t.Fatalf("degree sums %d/%d, m=%d", inSum, outSum, g.M())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	edges := []Edge{{0, 1, 0.5}, {1, 2, 0.25}, {2, 0, 1}}
	g := mustBuild(t, 3, edges)
	got := g.Edges()
	if len(got) != len(edges) {
		t.Fatalf("Edges() returned %d edges", len(got))
	}
	seen := map[Edge]bool{}
	for _, e := range got {
		seen[e] = true
	}
	for _, e := range edges {
		if !seen[e] {
			t.Fatalf("edge %v missing", e)
		}
	}
}

func TestUniformInDetection(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 2, 0.5}, {1, 2, 0.5}, {0, 1, 0.9}})
	if !g.UniformIn() {
		t.Fatal("per-node-equal weights not detected")
	}
	p, logP, ok := g.UniformInProb(2)
	if !ok || p != 0.5 {
		t.Fatalf("UniformInProb(2) = %v %v", p, ok)
	}
	if math.Abs(logP-math.Log1p(-0.5)) > 1e-15 {
		t.Fatalf("log1p mismatch: %v", logP)
	}

	g2 := mustBuild(t, 3, []Edge{{0, 2, 0.5}, {1, 2, 0.4}})
	if g2.UniformIn() {
		t.Fatal("unequal weights reported uniform")
	}
	if _, _, ok := g2.UniformInProb(2); ok {
		t.Fatal("UniformInProb ok on skewed graph")
	}
}

func TestAssignWC(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 3, 0}, {1, 3, 0}, {2, 3, 0}, {0, 1, 0}})
	g.AssignWC()
	if g.Model() != ModelWC {
		t.Fatalf("model = %v", g.Model())
	}
	_, probs := g.InNeighbors(3)
	for _, p := range probs {
		if math.Abs(p-1.0/3) > 1e-15 {
			t.Fatalf("WC weight %v", p)
		}
	}
	if s := g.SumInWeights(3); math.Abs(s-1) > 1e-12 {
		t.Fatalf("WC in-sum %v", s)
	}
	if !g.UniformIn() {
		t.Fatal("WC should enable the uniform fast path")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignWCVariant(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 3, 0}, {1, 3, 0}, {2, 3, 0}, {0, 1, 0}})
	g.AssignWCVariant(2)
	_, probs := g.InNeighbors(3)
	for _, p := range probs {
		if math.Abs(p-2.0/3) > 1e-15 {
			t.Fatalf("variant weight %v", p)
		}
	}
	// Node 1 has in-degree 1: min(1, 2/1) must clamp at 1.
	_, probs1 := g.InNeighbors(1)
	if probs1[0] != 1 {
		t.Fatalf("clamp failed: %v", probs1[0])
	}
	if g.Model() != ModelWCVariant {
		t.Fatalf("model = %v", g.Model())
	}
	// θ = 1 coincides with WC.
	g.AssignWCVariant(1)
	_, probs = g.InNeighbors(3)
	if math.Abs(probs[0]-1.0/3) > 1e-15 {
		t.Fatal("θ=1 variant differs from WC")
	}
}

func TestAssignWCVariantPanics(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 1, 0}})
	defer func() {
		if recover() == nil {
			t.Fatal("negative theta accepted")
		}
	}()
	g.AssignWCVariant(-1)
}

func TestAssignUniform(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1, 0}, {1, 2, 0}, {0, 2, 0}})
	g.AssignUniform(0.125)
	for _, e := range g.Edges() {
		if e.P != 0.125 {
			t.Fatalf("uniform weight %v", e.P)
		}
	}
	if g.Model() != ModelUniform || !g.UniformIn() {
		t.Fatal("uniform model flags wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("p=2 accepted")
		}
	}()
	g.AssignUniform(2)
}

func TestAssignSkewedNormalisation(t *testing.T) {
	r := rng.New(7)
	g, err := GenErdosRenyi(30, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		assign func()
		model  WeightModel
	}{
		{"exponential", func() { g.AssignExponential(r, 1) }, ModelExponential},
		{"weibull", func() { g.AssignWeibull(r) }, ModelWeibull},
	} {
		name := c.name
		c.assign()
		if g.Model() != c.model {
			t.Fatalf("%s: model = %v", name, g.Model())
		}
		for v := int32(0); v < int32(g.N()); v++ {
			if g.InDegree(v) == 0 {
				continue
			}
			if s := g.SumInWeights(v); math.Abs(s-1) > 1e-9 {
				t.Fatalf("%s: node %d in-sum %v", name, v, s)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestAssignLT(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 2, 0}, {1, 2, 0}})
	g.AssignLT()
	if g.Model() != ModelLT {
		t.Fatalf("model = %v", g.Model())
	}
	if s := g.SumInWeights(2); math.Abs(s-1) > 1e-12 {
		t.Fatalf("LT in-sum %v", s)
	}
}

func TestSortInEdges(t *testing.T) {
	r := rng.New(9)
	g, err := GenErdosRenyi(40, 300, r)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignExponential(r, 1)
	before := map[[2]int32]float64{}
	for _, e := range g.Edges() {
		before[[2]int32{e.From, e.To}] = e.P
	}
	g.SortInEdges()
	if !g.SortedIn() {
		t.Fatal("SortedIn not set")
	}
	for v := int32(0); v < int32(g.N()); v++ {
		srcs, probs := g.InNeighbors(v)
		for i := 1; i < len(probs); i++ {
			if probs[i] > probs[i-1] {
				t.Fatalf("node %d in-edges not descending: %v", v, probs)
			}
		}
		// Every (source, weight) pair must be preserved.
		for i, s := range srcs {
			if before[[2]int32{s, v}] != probs[i] {
				t.Fatalf("edge (%d,%d) weight changed", s, v)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	g.SortInEdges()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightModelString(t *testing.T) {
	names := map[WeightModel]string{
		ModelUnset: "unset", ModelWC: "WC", ModelWCVariant: "WC-variant",
		ModelUniform: "UniformIC", ModelExponential: "Exponential",
		ModelWeibull: "Weibull", ModelLT: "LT", WeightModel(99): "WeightModel(99)",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestGenErdosRenyi(t *testing.T) {
	r := rng.New(1)
	g, err := GenErdosRenyi(20, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 || g.M() != 100 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	seen := map[[2]int32]bool{}
	for _, e := range g.Edges() {
		if e.From == e.To {
			t.Fatal("self loop")
		}
		key := [2]int32{e.From, e.To}
		if seen[key] {
			t.Fatal("duplicate edge")
		}
		seen[key] = true
	}
	if _, err := GenErdosRenyi(3, 7, r); err == nil {
		t.Error("m > n(n-1) accepted")
	}
	if _, err := GenErdosRenyi(-1, 0, r); err == nil {
		t.Error("negative n accepted")
	}
}

func TestGenPreferentialAttachment(t *testing.T) {
	r := rng.New(2)
	g, err := GenPreferentialAttachment(500, 4, true, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 500 {
		t.Fatalf("n = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Scale-free skew: the maximum degree must far exceed the average.
	maxDeg, sum := 0, 0
	for v := int32(0); v < int32(g.N()); v++ {
		d := g.OutDegree(v)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sum) / float64(g.N())
	if float64(maxDeg) < 4*avg {
		t.Fatalf("no preferential skew: max %d avg %v", maxDeg, avg)
	}
	// Undirected: in-degree equals out-degree everywhere.
	for v := int32(0); v < int32(g.N()); v++ {
		if g.InDegree(v) != g.OutDegree(v) {
			t.Fatalf("node %d asymmetric in undirected PA", v)
		}
	}
	if _, err := GenPreferentialAttachment(3, 0, true, r); err == nil {
		t.Error("deg=0 accepted")
	}
	if _, err := GenPreferentialAttachment(2, 4, true, r); err == nil {
		t.Error("n < deg+1 accepted")
	}
}

func TestGenPreferentialAttachmentDirected(t *testing.T) {
	r := rng.New(3)
	g, err := GenPreferentialAttachment(300, 3, false, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	asym := false
	for v := int32(0); v < int32(g.N()); v++ {
		if g.InDegree(v) != g.OutDegree(v) {
			asym = true
			break
		}
	}
	if !asym {
		t.Fatal("directed PA produced a symmetric graph")
	}
}

// TestGenPreferentialAttachmentPinned pins the directed PA graph a fixed
// seed produces: node count, edge count, and the FNV-1a hash of every
// (source, target) in-edge pair in CSR order, each id little-endian
// uint32. The benchmark's subsim-wc workload checks this same
// fingerprint, so a change that reorders the generator's draws fails
// here first.
func TestGenPreferentialAttachmentPinned(t *testing.T) {
	g, err := GenPreferentialAttachment(20000, 8, false, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for v := int32(0); v < int32(g.N()); v++ {
		src, _ := g.InNeighbors(v)
		for _, u := range src {
			binary.LittleEndian.PutUint32(buf[:4], uint32(u))
			binary.LittleEndian.PutUint32(buf[4:], uint32(v))
			_, _ = h.Write(buf[:]) // hash.Hash writes never fail
		}
	}
	if g.N() != 20000 || g.M() != 239849 || h.Sum64() != 0x8f38c4c17e4615ab {
		t.Fatalf("PA(20000, 8, seed 7) = n %d, m %d, hash %#x; want n 20000, m 239849, hash 0x8f38c4c17e4615ab",
			g.N(), g.M(), h.Sum64())
	}
}

func TestDeterministicTopologies(t *testing.T) {
	line := GenLine(5, 0.5)
	if line.M() != 4 || line.InDegree(0) != 0 || line.OutDegree(4) != 0 {
		t.Fatal("line shape wrong")
	}
	ring := GenRing(5, 0.5)
	if ring.M() != 5 {
		t.Fatal("ring shape wrong")
	}
	for v := int32(0); v < 5; v++ {
		if ring.InDegree(v) != 1 || ring.OutDegree(v) != 1 {
			t.Fatal("ring degrees wrong")
		}
	}
	star := GenStar(6, 0.3)
	if star.OutDegree(0) != 5 || star.M() != 5 {
		t.Fatal("star shape wrong")
	}
	complete := GenComplete(4, 1)
	if complete.M() != 12 {
		t.Fatal("complete shape wrong")
	}
	bip := GenBipartiteOut(2, 3, 0.5)
	if bip.M() != 6 || bip.OutDegree(0) != 3 || bip.InDegree(3) != 2 {
		t.Fatal("bipartite shape wrong")
	}
	small := GenRing(1, 0.5)
	if small.M() != 0 {
		t.Fatal("degenerate ring has edges")
	}
}

// TestBuildPropertyCSRConsistency quick-checks CSR invariants on random
// edge multisets.
func TestBuildPropertyCSRConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(30)
		b := NewBuilder(n)
		m := r.Intn(4 * n)
		for i := 0; i < m; i++ {
			u := int32(r.Intn(n))
			v := int32(r.Intn(n))
			if u == v {
				continue
			}
			if err := b.AddEdge(u, v, r.Float64()); err != nil {
				return false
			}
		}
		g := b.Build()
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
