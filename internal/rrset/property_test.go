package rrset

import (
	"sort"
	"testing"
	"testing/quick"

	"subsim/internal/graph"
	"subsim/internal/rng"
)

// reverseReachable computes the deterministic set of nodes that can reach
// root (via BFS over in-edges), the p=1 ground truth for RR sets.
func reverseReachable(g *graph.Graph, root int32) []int32 {
	visited := make([]bool, g.N())
	visited[root] = true
	out := []int32{root}
	queue := []int32{root}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		sources, _ := g.InNeighbors(u)
		for _, w := range sources {
			if !visited[w] {
				visited[w] = true
				out = append(out, w)
				queue = append(queue, w)
			}
		}
	}
	return out
}

// TestPropertyP1RRSetEqualsReachability: with every edge at probability
// 1, each generator's RR set must equal the deterministic
// reverse-reachable set, on arbitrary random graphs.
func TestPropertyP1RRSetEqualsReachability(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		m := int64(r.Intn(4 * n))
		if max := int64(n) * int64(n-1); m > max {
			m = max
		}
		g, err := graph.GenErdosRenyi(n, m, r)
		if err != nil {
			return false
		}
		g.AssignUniform(1)
		root := int32(r.Intn(n))
		want := append([]int32(nil), reverseReachable(g, root)...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, gen := range []Generator{NewVanilla(g), NewSubsim(g)} {
			got := append([]int32(nil), gen.Generate(r, root, nil)...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyP0RRSetIsRoot: with probability 0 everywhere, every RR set
// is exactly the root.
func TestPropertyP0RRSetIsRoot(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		m := int64(r.Intn(3 * n))
		if max := int64(n) * int64(n-1); m > max {
			m = max
		}
		g, err := graph.GenErdosRenyi(n, m, r)
		if err != nil {
			return false
		}
		g.AssignUniform(0)
		root := int32(r.Intn(n))
		for _, gen := range []Generator{NewVanilla(g), NewSubsim(g)} {
			set := gen.Generate(r, root, nil)
			if len(set) != 1 || set[0] != root {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySentinelSubset: a sentinel-terminated RR set is always a
// prefix-closed subset of some valid traversal — in particular it never
// contains more than one sentinel, and if it contains one it is the last
// element.
func TestPropertySentinelSubset(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(40)
		m := int64(r.Intn(5 * n))
		if max := int64(n) * int64(n-1); m > max {
			m = max
		}
		g, err := graph.GenErdosRenyi(n, m, r)
		if err != nil {
			return false
		}
		g.AssignWCVariant(1 + 3*r.Float64())
		sentinel := make([]bool, n)
		for s := 0; s < 1+r.Intn(3); s++ {
			sentinel[r.Intn(n)] = true
		}
		gen := NewSubsim(g)
		for trial := 0; trial < 50; trial++ {
			set := GenerateRandom(gen, r, sentinel)
			count := 0
			for i, v := range set {
				if sentinel[v] {
					count++
					if i != len(set)-1 {
						return false
					}
				}
			}
			if count > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAllSentinelsMeansSingletons: when every node is a sentinel,
// every RR set is exactly {root}.
func TestPropertyAllSentinelsMeansSingletons(t *testing.T) {
	r := rng.New(1)
	g, err := graph.GenErdosRenyi(50, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignUniform(1)
	sentinel := make([]bool, 50)
	for i := range sentinel {
		sentinel[i] = true
	}
	gen := NewVanilla(g)
	for i := 0; i < 200; i++ {
		set := GenerateRandom(gen, r, sentinel)
		if len(set) != 1 {
			t.Fatalf("all-sentinel RR set %v", set)
		}
	}
}
