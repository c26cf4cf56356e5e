package rrset

import (
	"math"
	"testing"

	"subsim/internal/graph"
	"subsim/internal/rng"
)

// exactRR enumerates every live-edge subgraph of edges on n nodes, each
// edge live independently with its probability, and returns the exact
// P(v ∈ RR(root)) of every node v and the exact P(RR(root) ∩ S ≠ ∅) for
// the sentinel set S. Its cost is 2^len(edges) reverse searches.
func exactRR(n int, edges []graph.Edge, root int32, sentinels []int32) (incl []float64, hit float64) {
	in := make([][]int, n) // in-edge indices per target node
	for i, e := range edges {
		in[e.To] = append(in[e.To], i)
	}
	incl = make([]float64, n)
	reached := make([]bool, n)
	var queue []int32
	for mask := 0; mask < 1<<len(edges); mask++ {
		prob := 1.0
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				prob *= e.P
			} else {
				prob *= 1 - e.P
			}
		}
		clear(reached)
		reached[root] = true
		queue = append(queue[:0], root)
		for head := 0; head < len(queue); head++ {
			for _, i := range in[queue[head]] {
				if w := edges[i].From; mask&(1<<i) != 0 && !reached[w] {
					reached[w] = true
					queue = append(queue, w)
				}
			}
		}
		for _, v := range queue {
			incl[v] += prob
		}
		for _, s := range sentinels {
			if reached[s] {
				hit += prob
				break
			}
		}
	}
	return incl, hit
}

// TestRRInclusionMatchesEnumeration checks every reverse-BFS generator's
// RR-set distribution against exact live-edge enumeration on two tiny
// graphs whose 14 and 16 edges all have probability in (0,1): a
// WC-variant graph, on which SUBSIM takes the equal-probability path, and
// a hand-weighted skewed graph (a 5-edge node spans three position
// buckets), on which it takes the sorted path. For every node v the
// empirical frequency of v ∈ RR(root), and with sentinels the frequency
// of a sentinel hit, must lie within 4.5 binomial standard deviations of
// the exact probability. The test pins distributions, not RNG draws, so
// it holds across any change of draw order.
func TestRRInclusionMatchesEnumeration(t *testing.T) {
	wcv := []graph.Edge{
		{From: 1, To: 0}, {From: 2, To: 0}, {From: 3, To: 0},
		{From: 4, To: 1}, {From: 2, To: 1},
		{From: 5, To: 2}, {From: 6, To: 2}, {From: 3, To: 2},
		{From: 6, To: 3}, {From: 7, To: 3},
		{From: 0, To: 4}, {From: 7, To: 4},
		{From: 1, To: 5},
		{From: 4, To: 6},
	}
	skewed := []graph.Edge{ // deliberately not in descending order per node
		{From: 1, To: 0, P: 0.2}, {From: 2, To: 0, P: 0.9}, {From: 3, To: 0, P: 0.05},
		{From: 4, To: 0, P: 0.6}, {From: 5, To: 0, P: 0.35},
		{From: 2, To: 1, P: 0.3}, {From: 4, To: 1, P: 0.7}, {From: 6, To: 1, P: 0.1},
		{From: 3, To: 2, P: 0.25}, {From: 5, To: 2, P: 0.5},
		{From: 6, To: 3, P: 0.4}, {From: 0, To: 3, P: 0.8},
		{From: 1, To: 4, P: 0.45}, {From: 5, To: 4, P: 0.15},
		{From: 6, To: 5, P: 0.55}, {From: 2, To: 5, P: 0.65},
	}
	cases := []struct {
		name      string
		n         int
		edges     []graph.Edge
		weigh     func(g *graph.Graph) // nil keeps the edges' own P
		sentinels []int32
	}{
		{"wc-variant", 8, wcv, func(g *graph.Graph) { g.AssignWCVariant(0.8) }, []int32{5, 6}},
		{"skewed", 7, skewed, nil, []int32{3, 6}},
	}
	const root, draws = 0, 40000
	for _, c := range cases {
		b := graph.NewBuilder(c.n)
		for _, e := range c.edges {
			if err := b.AddEdge(e.From, e.To, e.P); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		if c.weigh != nil {
			c.weigh(g)
		}
		edges := g.Edges()
		for _, e := range edges {
			if e.P <= 0 || e.P >= 1 {
				t.Fatalf("%s: edge %v is not uncertain", c.name, e)
			}
		}
		incl, hit := exactRR(c.n, edges, root, c.sentinels)
		sentinel := make([]bool, c.n)
		for _, s := range c.sentinels {
			sentinel[s] = true
		}
		within := func(got int, want float64) bool {
			f := float64(got) / draws
			variance := math.Max(want*(1-want), 0) // the summed root mass may round above 1
			return math.Abs(f-want) <= 4.5*math.Sqrt(variance/draws)+1.0/draws
		}
		if g.UniformIn() != (c.weigh != nil) {
			t.Fatalf("%s: UniformIn = %v, so SUBSIM would take the other path", c.name, g.UniformIn())
		}
		for name, gen := range allGenerators(g) {
			r := rng.New(17)
			counts := make([]int, c.n)
			for d := 0; d < draws; d++ {
				for _, v := range gen.Generate(r, root, nil) {
					counts[v]++
				}
			}
			for v, want := range incl {
				if !within(counts[v], want) {
					t.Errorf("%s/%s: P(%d ∈ RR(%d)) = %.4f, exact %.4f",
						c.name, name, v, root, float64(counts[v])/draws, want)
				}
			}
			before := gen.Stats().SentinelHits
			for d := 0; d < draws; d++ {
				gen.Generate(r, root, sentinel)
			}
			if hits := gen.Stats().SentinelHits - before; !within(int(hits), hit) {
				t.Errorf("%s/%s: P(RR(%d) ∩ %v ≠ ∅) = %.4f, exact %.4f",
					c.name, name, root, c.sentinels, float64(hits)/draws, hit)
			}
		}
	}
}
