// Package graph implements the directed, weighted social-network
// substrate that every influence-maximization component in this
// repository operates on.
//
// Graphs are stored in compressed sparse row (CSR) form for both
// directions: RR set generation walks in-edges (reverse direction) while
// forward Monte-Carlo diffusion walks out-edges. Each in-edge position is
// cross-indexed to its out-edge twin so that edge-weight assignments stay
// consistent between the two views.
//
// Edge weights are the propagation probabilities p(u,v) of the
// Independent Cascade / Linear Threshold models. The package provides the
// weight models evaluated in the paper (WC, the WC variant
// min{1, θ/d_in}, Uniform IC, Exponential and Weibull skewed weights) and
// records, per node, whether all incoming weights are equal — the fast
// path that SUBSIM's geometric skip sampler exploits.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Graph is an immutable directed graph with propagation probabilities on
// its edges. Construct one with a Builder, a generator, or a loader; the
// zero value is an empty graph.
//
// Node identifiers are dense int32 values in [0, N()).
type Graph struct {
	n int32
	m int64

	inOff []int64   // len n+1; in-edges of v are positions inOff[v]:inOff[v+1]
	inAdj []int32   // source node of each in-edge
	inW   []float64 // p(inAdj[i], v) for the in-edge at position i

	outOff []int64
	outAdj []int32   // target node of each out-edge
	outW   []float64 // p(u, outAdj[j]) for the out-edge at position j

	inToOut []int64 // position of each in-edge's twin in the out arrays

	// inHead holds one InHeader per node when, for every node, all
	// incoming edges carry the same probability (WC, WC variant and
	// Uniform IC), and is nil otherwise: it is the single piece of
	// equal-probability fast-path state.
	inHead []InHeader

	sortedIn bool // in-edges sorted by descending weight per node

	model WeightModel
}

// N returns the number of nodes.
func (g *Graph) N() int { return int(g.n) }

// M returns the number of directed edges.
func (g *Graph) M() int64 { return g.m }

// Model returns the weight model most recently assigned to the graph.
func (g *Graph) Model() WeightModel { return g.model }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v int32) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v int32) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// AvgDegree returns m/n, the average out-degree (equivalently in-degree).
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// InNeighbors returns the sources and probabilities of v's incoming
// edges. The returned slices alias the graph's internal storage and must
// not be modified.
func (g *Graph) InNeighbors(v int32) (sources []int32, probs []float64) {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inAdj[lo:hi], g.inW[lo:hi]
}

// OutNeighbors returns the targets and probabilities of v's outgoing
// edges. The returned slices alias the graph's internal storage and must
// not be modified.
func (g *Graph) OutNeighbors(v int32) (targets []int32, probs []float64) {
	lo, hi := g.outOff[v], g.outOff[v+1]
	return g.outAdj[lo:hi], g.outW[lo:hi]
}

// InHeader is everything the geometric-skip fast path needs about one
// node v whose d in-edges share probability p, packed into 32 bytes so
// that a reverse-BFS step on v touches one cache line before it reads
// v's in-edge sources.
type InHeader struct {
	Off int64 // position of v's first in-edge: its sources are InAdj()[Off : Off+Deg]
	Deg int64 // in-degree d
	// LogP is log1p(-p), the precomputed geometric-skip denominator:
	// -Inf when p = 1, and 0 when p = 0 or d = 0.
	LogP float64
	// Touched is 1-(1-p)^d, the chance that subset sampling v's in-edges
	// yields at least one of them, which lets a generator skip an
	// untouched node with a single comparison.
	Touched float64
}

// UniformInHeaders returns one InHeader per node when every node's
// incoming edges share one probability (WC, WC variant and Uniform IC),
// and nil otherwise. The slice aliases the graph's internal storage and
// must not be modified.
func (g *Graph) UniformInHeaders() []InHeader { return g.inHead }

// InAdj returns the source node of every in-edge, node by node in CSR
// order: the in-edges of v are the positions InNeighbors(v) covers. The
// slice aliases the graph's internal storage and must not be modified.
func (g *Graph) InAdj() []int32 { return g.inAdj }

// UniformIn reports whether the graph-wide equal-in-probability fast path
// is available.
func (g *Graph) UniformIn() bool { return g.inHead != nil }

// SortedIn reports whether each node's in-edges are sorted by descending
// probability, the precondition of the index-free general-IC sampler.
func (g *Graph) SortedIn() bool { return g.sortedIn }

// SumInWeights returns the total probability mass on v's incoming edges,
// the quantity the paper's θ(d_in(v)) bounds.
func (g *Graph) SumInWeights(v int32) float64 {
	_, probs := g.InNeighbors(v)
	var s float64
	for _, p := range probs {
		s += p
	}
	return s
}

// Edge is a directed edge with its propagation probability, used by
// builders and the I/O layer.
type Edge struct {
	From, To int32
	P        float64
}

// Builder accumulates edges and produces an immutable Graph. Adding edges
// after Build is not supported. Parallel edges are kept as-is; self-loops
// are rejected because the cascade process never uses them.
type Builder struct {
	n     int32
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n nodes. Node counts
// outside the int32 id range are a programming error and panic; callers
// parsing untrusted headers (the graph readers) validate and return an
// error before reaching this.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	if n > math.MaxInt32 {
		panic("graph: node count exceeds int32 range")
	}
	return &Builder{n: int32(n)}
}

// AddEdge records the directed edge (from, to) with probability p. It
// returns an error for out-of-range endpoints, self-loops, or
// probabilities outside [0, 1].
func (b *Builder) AddEdge(from, to int32, p float64) error {
	if from < 0 || from >= b.n || to < 0 || to >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, b.n)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop at node %d", from)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("graph: edge (%d,%d) probability %v outside [0,1]", from, to, p)
	}
	b.edges = append(b.edges, Edge{From: from, To: to, P: p})
	return nil
}

// AddUndirected records both directions of an edge with the same
// probability, the convention the paper uses for undirected datasets.
func (b *Builder) AddUndirected(u, v int32, p float64) error {
	if err := b.AddEdge(u, v, p); err != nil {
		return err
	}
	return b.AddEdge(v, u, p)
}

// NumEdges returns the number of directed edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build constructs the immutable CSR graph. The Builder may be reused
// afterwards, but edges added later do not affect graphs already built.
func (b *Builder) Build() *Graph {
	n := int(b.n)
	m := int64(len(b.edges))
	g := &Graph{
		n:       b.n,
		m:       m,
		inOff:   make([]int64, n+1),
		inAdj:   make([]int32, m),
		inW:     make([]float64, m),
		outOff:  make([]int64, n+1),
		outAdj:  make([]int32, m),
		outW:    make([]float64, m),
		inToOut: make([]int64, m),
	}
	for _, e := range b.edges {
		g.outOff[e.From+1]++
		g.inOff[e.To+1]++
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	outPos := make([]int64, n)
	inPos := make([]int64, n)
	copy(outPos, g.outOff[:n])
	copy(inPos, g.inOff[:n])
	for _, e := range b.edges {
		op := outPos[e.From]
		g.outAdj[op] = e.To
		g.outW[op] = e.P
		outPos[e.From]++

		ip := inPos[e.To]
		g.inAdj[ip] = e.From
		g.inW[ip] = e.P
		g.inToOut[ip] = op
		inPos[e.To]++
	}
	g.detectUniformIn()
	return g
}

// setInWeight assigns probability p to the in-edge at position i and to
// its out-edge twin, keeping the two views consistent.
func (g *Graph) setInWeight(i int64, p float64) {
	g.inW[i] = p
	g.outW[g.inToOut[i]] = p
}

// detectUniformIn scans the graph and enables the equal-in-probability
// fast path when every node's incoming edges share one probability. On
// any other graph it drops the previous model's headers.
func (g *Graph) detectUniformIn() {
	g.inHead = nil
	head := make([]InHeader, g.n)
	for v := range head {
		lo, hi := g.inOff[v], g.inOff[v+1]
		h := InHeader{Off: lo, Deg: hi - lo}
		if hi > lo {
			p := g.inW[lo]
			for i := lo + 1; i < hi; i++ {
				if g.inW[i] != p {
					return
				}
			}
			switch {
			case p >= 1:
				h.LogP = math.Inf(-1)
				h.Touched = 1
			case p > 0:
				h.LogP = math.Log1p(-p)
				h.Touched = -math.Expm1(float64(h.Deg) * h.LogP)
			}
		}
		head[v] = h
	}
	g.inHead = head
}

// SortInEdges reorders each node's incoming edges by descending
// probability (stable on ties by source id), the layout required by the
// index-free general-IC subset sampler of Section 3.3. The out-edge view
// is unaffected. Calling it on an already-sorted graph is a no-op.
func (g *Graph) SortInEdges() {
	if g.sortedIn {
		return
	}
	for v := int32(0); v < g.n; v++ {
		lo, hi := g.inOff[v], g.inOff[v+1]
		span := inEdgeSpan{
			adj: g.inAdj[lo:hi],
			w:   g.inW[lo:hi],
			x:   g.inToOut[lo:hi],
		}
		sort.Stable(span)
	}
	g.sortedIn = true
}

// inEdgeSpan sorts one node's in-edge triple (adj, weight, cross-index)
// by descending weight.
type inEdgeSpan struct {
	adj []int32
	w   []float64
	x   []int64
}

func (s inEdgeSpan) Len() int { return len(s.adj) }
func (s inEdgeSpan) Less(i, j int) bool {
	if s.w[i] != s.w[j] {
		return s.w[i] > s.w[j]
	}
	return s.adj[i] < s.adj[j]
}
func (s inEdgeSpan) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
	s.x[i], s.x[j] = s.x[j], s.x[i]
}

// Validate checks internal CSR invariants. It is used by tests and by the
// binary loader to reject corrupt inputs. A nil return means the
// structure is consistent.
func (g *Graph) Validate() error {
	n := int(g.n)
	if len(g.inOff) != n+1 || len(g.outOff) != n+1 {
		return fmt.Errorf("graph: offset arrays have wrong length")
	}
	if g.inOff[0] != 0 || g.outOff[0] != 0 || g.inOff[n] != g.m || g.outOff[n] != g.m {
		return fmt.Errorf("graph: offsets do not span [0,%d]", g.m)
	}
	for v := 0; v < n; v++ {
		if g.inOff[v] > g.inOff[v+1] || g.outOff[v] > g.outOff[v+1] {
			return fmt.Errorf("graph: non-monotone offsets at node %d", v)
		}
	}
	if int64(len(g.inAdj)) != g.m || int64(len(g.outAdj)) != g.m {
		return fmt.Errorf("graph: adjacency arrays have wrong length")
	}
	for i := int64(0); i < g.m; i++ {
		if g.inAdj[i] < 0 || g.inAdj[i] >= g.n || g.outAdj[i] < 0 || g.outAdj[i] >= g.n {
			return fmt.Errorf("graph: adjacency entry out of range at %d", i)
		}
		if g.inW[i] < 0 || g.inW[i] > 1 || math.IsNaN(g.inW[i]) {
			return fmt.Errorf("graph: in-weight out of [0,1] at %d", i)
		}
		if g.outW[g.inToOut[i]] != g.inW[i] {
			return fmt.Errorf("graph: in/out weight mismatch at in-edge %d", i)
		}
	}
	return nil
}

// Edges returns all edges of the graph in out-adjacency order. It
// allocates; it is intended for I/O and tests, not hot paths.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := int32(0); u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for j := lo; j < hi; j++ {
			edges = append(edges, Edge{From: u, To: g.outAdj[j], P: g.outW[j]})
		}
	}
	return edges
}
