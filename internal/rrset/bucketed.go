package rrset

import (
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/sampling"
)

// SubsimBucketed is the general-IC SUBSIM generator backed by the
// preprocessed bucketed subset sampler (paper Lemma 5). Construction
// builds one sampler per node with in-edges — O(m) preprocessing — after
// which activating the in-neighbors of a node costs O(1 + Σp) expected
// (plus O(log d) bucket touches without the jump chain). It trades memory
// and preprocessing for per-sample speed, which is why the paper also
// offers the index-free variant (see Subsim) for sparse graphs.
type SubsimBucketed struct {
	t        traversal
	stats    Stats
	samplers []*sampling.Bucketed // per node; nil for nodes without in-edges
}

// NewSubsimBucketed builds the per-node samplers over g. When jump is
// true the bucket-jump chain is built as well, removing the O(log d)
// bucket-touch term at the price of O(log² d) extra preprocessing per
// node.
func NewSubsimBucketed(g *graph.Graph, jump bool) *SubsimBucketed {
	sb := &SubsimBucketed{
		t:        newTraversal(g),
		samplers: make([]*sampling.Bucketed, g.N()),
	}
	for v := int32(0); v < int32(g.N()); v++ {
		_, probs := g.InNeighbors(v)
		if len(probs) == 0 {
			continue
		}
		if jump {
			sb.samplers[v] = sampling.NewBucketedJump(probs)
		} else {
			sb.samplers[v] = sampling.NewBucketed(probs)
		}
	}
	return sb
}

// Graph returns the underlying graph.
func (sb *SubsimBucketed) Graph() *graph.Graph { return sb.t.g }

// Stats returns the accumulated counters.
func (sb *SubsimBucketed) Stats() Stats { return sb.stats }

// ResetStats zeroes the counters.
func (sb *SubsimBucketed) ResetStats() { sb.stats = Stats{} }

// Clone returns an independent generator sharing the (immutable) per-node
// samplers.
func (sb *SubsimBucketed) Clone() Generator {
	return &SubsimBucketed{
		t:        newTraversal(sb.t.g),
		samplers: sb.samplers,
	}
}

// Generate performs the reverse traversal with bucketed in-neighbor
// subset sampling and returns a caller-owned set (compatibility path).
func (sb *SubsimBucketed) Generate(r *rng.Source, root int32, sentinel []bool) RRSet {
	return sb.t.copyOut(sb.generate(r, root, sentinel, sb.t.scratch[:0]))
}

// GenerateInto appends the RR set of root to the arena — the
// allocation-free hot path.
//
//subsim:hotpath
func (sb *SubsimBucketed) GenerateInto(a *Arena, r *rng.Source, root int32, sentinel []bool) []int32 {
	start := a.start()
	a.commit(sb.generate(r, root, sentinel, a.data))
	return a.data[start:]
}

// generate runs the reverse traversal with bucketed subset sampling,
// appending into buf.
//
//subsim:hotpath
func (sb *SubsimBucketed) generate(r *rng.Source, root int32, sentinel []bool, buf []int32) []int32 {
	base := len(buf)
	set, done := sb.t.begin(root, sentinel, buf)
	if done {
		sb.note(len(set) - base)
		return set
	}
	g := sb.t.g
	for head := base; head < len(set); head++ {
		u := set[head]
		sampler := sb.samplers[u]
		if sampler == nil {
			continue
		}
		sources, _ := g.InNeighbors(u)
		stop := false
		sb.stats.EdgesExamined++
		//lint:allow alloc (yield closure per activated node; escape analysis keeps it off the heap when Sample does not retain it)
		sampler.Sample(r, func(i int) bool {
			sb.stats.EdgesExamined++
			w := sources[i]
			if sb.t.seen(w) {
				return true
			}
			if sb.t.activate(w, sentinel, &set) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			break
		}
	}
	sb.note(len(set) - base)
	return set
}

func (sb *SubsimBucketed) note(size int) {
	sb.stats.Sets++
	sb.stats.Nodes += int64(size)
	if sb.t.hit {
		sb.stats.SentinelHits++
	}
}
