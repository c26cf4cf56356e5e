package graph

import (
	"fmt"
	"sort"
)

// This file provides the structural analysis utilities the experiment
// harness and the heuristics need around influence maximization:
// strongly/weakly connected components, degree ranking, core numbers,
// and summary statistics.

// SCC computes strongly connected components with an iterative Tarjan
// algorithm (no recursion, so million-node graphs do not overflow the
// stack). It returns a component id per node (0-based, reverse
// topological order: an edge u→v across components has comp[u] >
// comp[v]) and the number of components.
func (g *Graph) SCC() (comp []int32, count int) {
	n := g.N()
	const unvisited = int32(-1)
	comp = make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32
	var next int32 // next DFS index

	type frame struct {
		v    int32
		edge int64 // next out-edge offset to examine
	}
	var dfs []frame

	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		dfs = append(dfs[:0], frame{v: root, edge: g.outOff[root]})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := f.v
			if f.edge < g.outOff[v+1] {
				w := g.outAdj[f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{v: w, edge: g.outOff[w]})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(count)
					if w == v {
						break
					}
				}
				count++
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, count
}

// WCC computes weakly connected components (ignoring edge direction) via
// union-find with path halving. It returns a component id per node and
// the number of components.
func (g *Graph) WCC() (comp []int32, count int) {
	n := g.N()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := int32(0); u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for j := lo; j < hi; j++ {
			ru, rv := find(u), find(g.outAdj[j])
			if ru != rv {
				parent[ru] = rv
			}
		}
	}
	comp = make([]int32, n)
	ids := map[int32]int32{}
	for v := int32(0); v < int32(n); v++ {
		r := find(v)
		id, ok := ids[r]
		if !ok {
			id = int32(len(ids))
			ids[r] = id
		}
		comp[v] = id
	}
	return comp, len(ids)
}

// LargestComponentSize returns the size of the largest component given a
// component labelling.
func LargestComponentSize(comp []int32, count int) int {
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}

// TopOutDegree returns the k nodes with the largest out-degree, in
// descending order (ties by node id ascending). It is the classic degree
// heuristic's seed set and the sentinel candidates' natural ordering.
func (g *Graph) TopOutDegree(k int) []int32 {
	n := g.N()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	nodes := make([]int32, n)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	sort.Slice(nodes, func(i, j int) bool {
		di, dj := g.OutDegree(nodes[i]), g.OutDegree(nodes[j])
		if di != dj {
			return di > dj
		}
		return nodes[i] < nodes[j]
	})
	return nodes[:k]
}

// KCore computes the core number of every node over the undirected
// skeleton (in-degree + out-degree), via the linear-time bucket peeling
// of Batagelj & Zaveršnik. The core number of v is the largest c such
// that v belongs to a subgraph where every node has total degree >= c.
// Core numbers are a robust influence proxy in the IM literature
// (high-core nodes sit in densely connected regions).
func (g *Graph) KCore() []int {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(int32(v)) + g.InDegree(int32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort nodes by degree.
	binStart := make([]int, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		binStart[d] += binStart[d-1]
	}
	pos := make([]int, n)     // position of node in sorted order
	order := make([]int32, n) // nodes sorted by current degree
	fill := append([]int(nil), binStart...)
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		order[pos[v]] = int32(v)
		fill[deg[v]]++
	}
	core := make([]int, n)
	curDeg := append([]int(nil), deg...)
	// Peel in degree order; when v is peeled, each unpeeled neighbour's
	// degree drops by one, moving it one bucket down.
	peeled := make([]bool, n)
	lower := func(w int32) {
		dw := curDeg[w]
		pw := pos[w]
		start := binStart[dw]
		u := order[start]
		if u != w {
			order[start], order[pw] = w, u
			pos[w], pos[u] = start, pw
		}
		binStart[dw]++
		curDeg[w]--
	}
	for i := 0; i < n; i++ {
		v := order[i]
		core[v] = curDeg[v]
		peeled[v] = true
		targets, _ := g.OutNeighbors(v)
		for _, w := range targets {
			if !peeled[w] && curDeg[w] > curDeg[v] {
				lower(w)
			}
		}
		sources, _ := g.InNeighbors(v)
		for _, w := range sources {
			if !peeled[w] && curDeg[w] > curDeg[v] {
				lower(w)
			}
		}
	}
	return core
}

// Stats summarises a graph for experiment logs.
type Stats struct {
	N            int
	M            int64
	AvgDegree    float64
	MaxOutDegree int
	MaxInDegree  int
	SCCs         int
	LargestSCC   int
	WCCs         int
	LargestWCC   int
}

// ComputeStats gathers the summary statistics (runs two component
// decompositions; linear in the graph size).
func (g *Graph) ComputeStats() Stats {
	s := Stats{N: g.N(), M: g.M(), AvgDegree: g.AvgDegree()}
	for v := int32(0); v < g.n; v++ {
		if d := g.OutDegree(v); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		if d := g.InDegree(v); d > s.MaxInDegree {
			s.MaxInDegree = d
		}
	}
	scc, nscc := g.SCC()
	s.SCCs = nscc
	s.LargestSCC = LargestComponentSize(scc, nscc)
	wcc, nwcc := g.WCC()
	s.WCCs = nwcc
	s.LargestWCC = LargestComponentSize(wcc, nwcc)
	return s
}

// String renders the statistics on one line.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d avgdeg=%.2f maxout=%d maxin=%d scc=%d(max %d) wcc=%d(max %d)",
		s.N, s.M, s.AvgDegree, s.MaxOutDegree, s.MaxInDegree, s.SCCs, s.LargestSCC, s.WCCs, s.LargestWCC)
}
