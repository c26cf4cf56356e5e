package rrset

import (
	"subsim/internal/graph"
	"subsim/internal/rng"
)

// Vanilla is the classic RR set generator under the Independent Cascade
// model (paper Algorithm 2): a reverse BFS that flips one coin per
// incoming edge of every activated node. Its expected cost is
// O((m/n)·I({v*})), which SUBSIM improves on; it is retained both as the
// baseline of Figure 2 and as the generator inside the plain HIST
// configuration.
type Vanilla struct {
	t     traversal
	stats Stats
}

// NewVanilla returns a vanilla IC generator over g.
func NewVanilla(g *graph.Graph) *Vanilla {
	return &Vanilla{t: newTraversal(g)}
}

// Graph returns the underlying graph.
func (v *Vanilla) Graph() *graph.Graph { return v.t.g }

// Stats returns the accumulated counters.
func (v *Vanilla) Stats() Stats { return v.stats }

// ResetStats zeroes the counters.
func (v *Vanilla) ResetStats() { v.stats = Stats{} }

// Clone returns an independent generator for another goroutine.
func (v *Vanilla) Clone() Generator {
	return &Vanilla{t: newTraversal(v.t.g)}
}

// Generate performs the reverse stochastic BFS from root and returns a
// caller-owned set (compatibility path over the scratch buffer).
func (v *Vanilla) Generate(r *rng.Source, root int32, sentinel []bool) RRSet {
	return v.t.copyOut(v.generate(r, root, sentinel, v.t.scratch[:0]))
}

// GenerateInto appends the RR set of root to the arena — the
// allocation-free hot path.
//
//subsim:hotpath
func (v *Vanilla) GenerateInto(a *Arena, r *rng.Source, root int32, sentinel []bool) []int32 {
	start := a.start()
	a.commit(v.generate(r, root, sentinel, a.data))
	return a.data[start:]
}

// generate runs the reverse stochastic BFS, appending into buf.
//
//subsim:hotpath
func (v *Vanilla) generate(r *rng.Source, root int32, sentinel []bool, buf []int32) []int32 {
	base := len(buf)
	set, done := v.t.begin(root, sentinel, buf)
	if done {
		v.note(len(set) - base)
		return set
	}
	g := v.t.g
	for head := base; head < len(set); head++ {
		sources, probs := g.InNeighbors(set[head])
		v.stats.EdgesExamined += int64(len(sources))
		for i, w := range sources {
			if v.t.seen(w) || !r.Bernoulli(probs[i]) {
				continue
			}
			if v.t.activate(w, sentinel, &set) {
				v.note(len(set) - base)
				return set
			}
		}
	}
	v.note(len(set) - base)
	return set
}

func (v *Vanilla) note(size int) {
	v.stats.Sets++
	v.stats.Nodes += int64(size)
	if v.t.hit {
		v.stats.SentinelHits++
	}
}
