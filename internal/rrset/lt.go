package rrset

import (
	"subsim/internal/graph"
	"subsim/internal/rng"
)

// LT generates RR sets under the Linear Threshold model. Because an LT
// node is activated by at most one in-neighbor (the live-edge
// formulation picks one incoming edge with probability p(u,v), or none
// with the residual probability), the reverse sample is a random walk:
// from the current node, pick one in-neighbor proportionally to edge
// weight or stop, and terminate on a revisit. The walk's cost per step is
// O(1) when a node's incoming weights are equal (the WC-based LT setting
// used in the experiments) and O(d) via prefix scan otherwise — in both
// cases the cost to "sample an edge" is proportional to its weight, which
// is why Section 3.2's tightened bound applies to LT with no algorithmic
// change.
type LT struct {
	t     traversal
	stats Stats
	sumIn []float64 // Σ p(u,v) per node, cached
}

// NewLT returns an LT generator over g. The incoming weights of every
// node must sum to at most 1 (graph.AssignLT guarantees exactly 1).
func NewLT(g *graph.Graph) *LT {
	lt := &LT{
		t:     newTraversal(g),
		sumIn: make([]float64, g.N()),
	}
	for v := int32(0); v < int32(g.N()); v++ {
		lt.sumIn[v] = g.SumInWeights(v)
	}
	return lt
}

// Graph returns the underlying graph.
func (lt *LT) Graph() *graph.Graph { return lt.t.g }

// Stats returns the accumulated counters.
func (lt *LT) Stats() Stats { return lt.stats }

// ResetStats zeroes the counters.
func (lt *LT) ResetStats() { lt.stats = Stats{} }

// Clone returns an independent generator sharing the cached weight sums.
func (lt *LT) Clone() Generator {
	return &LT{t: newTraversal(lt.t.g), sumIn: lt.sumIn}
}

// Generate performs the reverse random walk from root and returns a
// caller-owned set (compatibility path).
func (lt *LT) Generate(r *rng.Source, root int32, sentinel []bool) RRSet {
	return lt.t.copyOut(lt.generate(r, root, sentinel, lt.t.scratch[:0]))
}

// GenerateInto appends the RR set of root to the arena — the
// allocation-free hot path.
//
//subsim:hotpath
func (lt *LT) GenerateInto(a *Arena, r *rng.Source, root int32, sentinel []bool) []int32 {
	start := a.start()
	a.commit(lt.generate(r, root, sentinel, a.data))
	return a.data[start:]
}

// generate runs the reverse random walk, appending into buf.
//
//subsim:hotpath
func (lt *LT) generate(r *rng.Source, root int32, sentinel []bool, buf []int32) []int32 {
	base := len(buf)
	set, done := lt.t.begin(root, sentinel, buf)
	if done {
		lt.note(len(set) - base)
		return set
	}
	g := lt.t.g
	uniform := g.UniformIn()
	cur := root
	for {
		sources, probs := g.InNeighbors(cur)
		if len(sources) == 0 {
			break
		}
		sum := lt.sumIn[cur]
		if sum <= 0 {
			break
		}
		var next int32 = -1
		if uniform {
			// Equal weights: stop with probability 1-sum, otherwise a
			// uniform in-neighbor. One random draw, O(1).
			lt.stats.EdgesExamined++
			u := r.Float64()
			if u >= sum {
				break
			}
			idx := int(u / probs[0])
			if idx >= len(sources) { // numeric slack at the boundary
				idx = len(sources) - 1
			}
			next = sources[idx]
		} else {
			// General weights: inverse-transform over the prefix sums.
			u := r.Float64()
			if u >= sum {
				lt.stats.EdgesExamined++
				break
			}
			acc := 0.0
			for i, p := range probs {
				lt.stats.EdgesExamined++
				acc += p
				if u < acc {
					next = sources[i]
					break
				}
			}
			if next < 0 { // numeric slack at the boundary
				next = sources[len(sources)-1]
			}
		}
		if lt.t.seen(next) {
			break
		}
		if lt.t.activate(next, sentinel, &set) {
			break
		}
		cur = next
	}
	lt.note(len(set) - base)
	return set
}

func (lt *LT) note(size int) {
	lt.stats.Sets++
	lt.stats.Nodes += int64(size)
	if lt.t.hit {
		lt.stats.SentinelHits++
	}
}
