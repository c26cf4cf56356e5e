// Package rrset implements random reverse-reachable (RR) set generation,
// the key phase of all sampling-based influence-maximization algorithms
// and the subject of the paper's contribution.
//
// An RR set for a target node v under the Independent Cascade model is
// the set of nodes that reach v in a random subgraph where each edge
// (u,w) survives independently with probability p(u,w); it is produced by
// a reverse breadth-first traversal that activates in-neighbors
// stochastically. The package provides:
//
//   - Vanilla (paper Algorithm 2): one coin flip per incoming edge.
//   - Subsim (paper Algorithm 3): geometric skip sampling over the
//     in-neighbor list when a node's incoming probabilities are equal
//     (WC, WC variant, Uniform IC), falling back to the index-free
//     sorted sampler for general weights.
//   - LT: the linear-threshold generator (a reverse random walk).
//
// Every generator accepts an optional sentinel set: the traversal stops
// the moment a sentinel node is activated (paper Algorithm 5,
// "RR set-with-Sentinel"), which is what makes HIST's second phase cheap.
//
// Generators carry per-instance scratch buffers and statistics and are
// therefore NOT safe for concurrent use; call Clone to obtain an
// independent generator per goroutine.
package rrset

import (
	"subsim/internal/graph"
	"subsim/internal/rng"
)

// RRSet is one reverse-reachable sample: the distinct nodes that reach
// the target, target first. The order of the remaining nodes follows the
// traversal and is not significant.
type RRSet []int32

// Stats accumulates the cost counters the paper reports: the number of
// sets generated, their total size (so Nodes/Sets is the average RR set
// size of Figure 3b), and the number of edge examinations — coin flips
// for the vanilla generator, geometric draws and landings for SUBSIM —
// which is the abstract cost measure of Lemma 4.
type Stats struct {
	Sets  int64
	Nodes int64
	// EdgesExamined counts edge examinations. SUBSIM's equal-probability
	// path draws a whole BFS level's landings before it resolves any, so
	// when a sentinel stops the traversal, the landings already drawn
	// for the rest of that level still count.
	EdgesExamined int64
	// SentinelHits counts the sets whose traversal was truncated by a
	// sentinel node (including a sentinel root), the directly measurable
	// form of HIST's hit-and-stop behaviour: every hit set is covered by
	// the sentinel seed set S_b.
	SentinelHits int64
}

// AvgSize returns the average RR set size, or 0 before any set has been
// generated.
func (s Stats) AvgSize() float64 {
	if s.Sets == 0 {
		return 0
	}
	return float64(s.Nodes) / float64(s.Sets)
}

// Add merges the counters of other into s.
func (s *Stats) Add(other Stats) {
	s.Sets += other.Sets
	s.Nodes += other.Nodes
	s.EdgesExamined += other.EdgesExamined
	s.SentinelHits += other.SentinelHits
}

// Sub removes the counters of other from s; used to report deltas
// against a baseline snapshot.
func (s *Stats) Sub(other Stats) {
	s.Sets -= other.Sets
	s.Nodes -= other.Nodes
	s.EdgesExamined -= other.EdgesExamined
	s.SentinelHits -= other.SentinelHits
}

// Generator produces random RR sets over a fixed graph.
type Generator interface {
	// Generate returns the RR set of root. A non-nil sentinel (indexed
	// by node) makes the traversal stop as soon as a sentinel node is
	// activated. The returned slice is freshly allocated and owned by
	// the caller. It is the compatibility wrapper over GenerateInto:
	// the set is built in reusable scratch and copied out exact-size.
	Generate(r *rng.Source, root int32, sentinel []bool) RRSet
	// GenerateInto appends the RR set of root to the arena (the hot,
	// allocation-free path) and returns a transient view of it, valid
	// until the arena's next append or Reset.
	GenerateInto(a *Arena, r *rng.Source, root int32, sentinel []bool) []int32
	// Graph returns the graph the generator samples over.
	Graph() *graph.Graph
	// Stats returns the counters accumulated since the last ResetStats.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()
	// Clone returns a generator with fresh scratch space and zeroed
	// stats for use by another goroutine. Hint-sized scratch (SUBSIM's
	// frontier) is seeded from the parent's observed average RR-set
	// size.
	Clone() Generator
}

// RandomRoot samples a uniform target node, the first step of random RR
// set construction.
func RandomRoot(r *rng.Source, g *graph.Graph) int32 {
	return int32(r.Intn(g.N()))
}

// GenerateRandom draws a uniform root and returns its RR set.
func GenerateRandom(gen Generator, r *rng.Source, sentinel []bool) RRSet {
	return gen.Generate(r, RandomRoot(r, gen.Graph()), sentinel)
}

// GenerateRandomInto draws a uniform root and appends its RR set to the
// arena, returning a transient view.
//
//subsim:hotpath
func GenerateRandomInto(gen Generator, a *Arena, r *rng.Source, sentinel []bool) []int32 {
	return gen.GenerateInto(a, r, RandomRoot(r, gen.Graph()), sentinel)
}

// defaultScratchCap is the scratch capacity a fresh SUBSIM frontier
// starts with before any RR-set size has been observed. Clones of warmed
// generators size their scratch from the parent's running average
// instead (see scratchHint).
const defaultScratchCap = 32

// maxScratchHint caps data-driven scratch sizing so a pathological early
// sample cannot pin megabytes per worker.
const maxScratchHint = 1 << 16

// scratchHint converts the observed average RR-set size into an initial
// scratch capacity: a little headroom over the mean, clamped to sane
// bounds. This replaces the historical hardcoded capacities (256 for the
// queue, 8 for the set) with sizes learned from the workload itself.
func scratchHint(s Stats) int {
	if s.Sets == 0 {
		return defaultScratchCap
	}
	hint := int(s.AvgSize()*1.5) + 1
	if hint < defaultScratchCap {
		hint = defaultScratchCap
	}
	if hint > maxScratchHint {
		hint = maxScratchHint
	}
	return hint
}

// traversal is the shared reverse-BFS state: an epoch-stamped visited
// array (cleared in O(1) by bumping the epoch) and a reusable scratch
// buffer for the compatibility Generate path. The BFS queue is the RR
// set itself: nodes are appended in activation order, so a generator
// expands set[base], set[base+1], … until it catches up with the tail.
// The hit flag records whether the current traversal stopped on a
// sentinel, so generators can count Stats.SentinelHits without threading
// a return value through every traversal path.
type traversal struct {
	g       *graph.Graph
	visited []uint32
	epoch   uint32
	scratch []int32 // reused root-set buffer for the compat Generate path
	hit     bool
}

func newTraversal(g *graph.Graph) traversal {
	return traversal{g: g, visited: make([]uint32, g.N())}
}

// begin starts a new traversal from root, appending the root to buf
// (the arena tail on the hot path, the reusable scratch on the compat
// path). If the root itself is a sentinel the RR set is just {root} and
// done is true.
func (t *traversal) begin(root int32, sentinel []bool, buf []int32) (set []int32, done bool) {
	t.epoch++
	if t.epoch == 0 { // wrapped: reset stamps
		for i := range t.visited {
			t.visited[i] = 0
		}
		t.epoch = 1
	}
	t.hit = false
	t.visited[root] = t.epoch
	set = append(buf, root)
	if sentinel != nil && sentinel[root] {
		t.hit = true
		return set, true
	}
	return set, false
}

// activate marks w visited and appends it to set, which enqueues it. It
// reports whether the whole traversal must stop because w is a sentinel.
//
//subsim:hotpath
func (t *traversal) activate(w int32, sentinel []bool, set *[]int32) (stop bool) {
	t.visited[w] = t.epoch
	*set = append(*set, w)
	if sentinel != nil && sentinel[w] {
		t.hit = true
		return true
	}
	return false
}

func (t *traversal) seen(w int32) bool { return t.visited[w] == t.epoch }

// copyOut returns a caller-owned, exact-size copy of the scratch-built
// set — the single allocation of the compatibility Generate path.
func (t *traversal) copyOut(set []int32) RRSet {
	out := make(RRSet, len(set))
	copy(out, set)
	t.scratch = set[:0] // keep the (possibly grown) buffer for reuse
	return out
}
