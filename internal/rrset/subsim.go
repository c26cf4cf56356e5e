package rrset

import (
	"math"

	"subsim/internal/graph"
	"subsim/internal/rng"
)

// Subsim is the paper's RR set generator (Algorithm 3, extended to
// general IC in Section 3.3). When the graph offers equal per-node
// incoming probabilities (WC, WC variant, Uniform IC), activating the
// in-neighbors of a node costs O(1 + Σp) expected via geometric skip
// sampling. For skewed weights the generator uses the index-free sorted
// sampler, which requires the graph's in-edges to be sorted by descending
// probability (Graph.SortInEdges); NewSubsim performs the sort when
// needed.
//
// Two engineering refinements over the paper's pseudocode, both
// distribution-preserving:
//
//   - log1p(-p) for every bucket head is precomputed once at
//     construction (O(m) time, O(n log d) memory, shared by all clones),
//     so no logarithm is recomputed in the hot loop;
//   - the first landing in a scan region of s slots is drawn by inverse
//     transform from a single uniform u: no landing iff u ≥ 1-(1-p)^s (a
//     precomputed threshold), otherwise the landing position is
//     ⌈log1p(-u)/log1p(-p)⌉. Untouched nodes and buckets — the common
//     case — therefore cost one comparison instead of one logarithm,
//     which is where the classic per-bucket log-h overhead went.
type Subsim struct {
	t     traversal
	f     frontier
	stats Stats
	// buckets[v] describes node v's descending-sorted in-edge buckets
	// (bucket j spans 1-indexed positions [2^j, 2^{j+1})). Nil when the
	// graph offers the equal-probability fast path.
	buckets [][]bucketInfo
}

// bucketInfo caches, per position bucket, the geometric-skip denominator
// for the bucket head and the probability that the bucket yields at
// least one landing.
type bucketInfo struct {
	logHead float64 // log1p(-head); -Inf when head >= 1
	touched float64 // 1 - (1-head)^size
}

// NewSubsim returns a SUBSIM generator over g. If g has skewed weights
// and unsorted in-edges, they are sorted in place (a one-time O(m log n)
// preprocessing shared by all clones).
func NewSubsim(g *graph.Graph) *Subsim {
	s := &Subsim{t: newTraversal(g), f: newFrontier(0)}
	if !g.UniformIn() {
		g.SortInEdges()
		s.buckets = buildBucketInfo(g)
	}
	return s
}

func buildBucketInfo(g *graph.Graph) [][]bucketInfo {
	infos := make([][]bucketInfo, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		_, probs := g.InNeighbors(v)
		if len(probs) == 0 {
			continue
		}
		var row []bucketInfo
		for start := 1; start <= len(probs); start *= 2 {
			end := start * 2
			if end > len(probs)+1 {
				end = len(probs) + 1
			}
			head := probs[start-1]
			var bi bucketInfo
			switch {
			case head >= 1:
				bi = bucketInfo{logHead: math.Inf(-1), touched: 1}
			case head > 0:
				logHead := math.Log1p(-head)
				bi = bucketInfo{
					logHead: logHead,
					touched: -math.Expm1(float64(end-start) * logHead),
				}
			default:
				bi = bucketInfo{} // touched 0: the scan stops here
			}
			row = append(row, bi)
		}
		infos[v] = row
	}
	return infos
}

// Graph returns the underlying graph.
func (s *Subsim) Graph() *graph.Graph { return s.t.g }

// Stats returns the accumulated counters.
func (s *Subsim) Stats() Stats { return s.stats }

// ResetStats zeroes the counters.
func (s *Subsim) ResetStats() { s.stats = Stats{} }

// Clone returns an independent generator for another goroutine, sharing
// the immutable precomputed bucket tables; the frontier scratch is sized
// from the parent's observed average RR-set size.
func (s *Subsim) Clone() Generator {
	return &Subsim{
		t:       newTraversal(s.t.g),
		f:       newFrontier(scratchHint(s.stats)),
		buckets: s.buckets,
	}
}

// Generate performs the reverse traversal with subset-sampled in-neighbor
// activation and returns a caller-owned set (compatibility path).
func (s *Subsim) Generate(r *rng.Source, root int32, sentinel []bool) RRSet {
	return s.t.copyOut(s.generate(r, root, sentinel, s.t.scratch[:0]))
}

// GenerateInto appends the RR set of root to the arena — the
// allocation-free hot path.
//
//subsim:hotpath
func (s *Subsim) GenerateInto(a *Arena, r *rng.Source, root int32, sentinel []bool) []int32 {
	start := a.start()
	a.commit(s.generate(r, root, sentinel, a.data))
	return a.data[start:]
}

// generate dispatches to the uniform or sorted traversal, appending
// into buf.
//
//subsim:hotpath
func (s *Subsim) generate(r *rng.Source, root int32, sentinel []bool, buf []int32) []int32 {
	base := len(buf)
	set, done := s.t.begin(root, sentinel, buf)
	if done {
		s.note(len(set) - base)
		return set
	}
	g := s.t.g
	if table := g.UniformInHeaders(); table != nil {
		set = s.generateUniform(r, table, g.InAdj(), sentinel, set, base)
	} else {
		set = s.generateSorted(r, g, sentinel, set, base)
	}
	s.note(len(set) - base)
	return set
}

// frontier is the reused per-level scratch of generateUniform: the
// gathered headers of one BFS level's nodes, and the in-edge positions
// their landings drew.
type frontier struct {
	heads    []graph.InHeader
	landings []int64
}

func newFrontier(hint int) frontier {
	if hint <= 0 {
		hint = defaultScratchCap
	}
	return frontier{
		heads:    make([]graph.InHeader, 0, hint),
		landings: make([]int64, 0, hint),
	}
}

// firstLanding converts a uniform u < touched into the 1-indexed position
// of the first landing of a Bernoulli(p) scan, clamped to [1, size].
//
//subsim:hotpath
func firstLanding(u, logHead float64, size int64) int64 {
	if math.IsInf(logHead, -1) {
		return 1
	}
	x := int64(math.Ceil(math.Log1p(-u) / logHead))
	if x < 1 {
		return 1
	}
	if x > size {
		return size
	}
	return x
}

// generateUniform is the Algorithm 3 fast path: one geometric skip stream
// per activated node, entered only when a single uniform says the node's
// in-neighbor scan produces at least one landing. It walks the RR set
// one BFS level at a time (the level is the run of set entries appended
// while the previous level was resolved), in three passes whose loads do
// not depend on each other, so the CPU overlaps their cache misses
// instead of waiting on each in turn: gatherHeads, drawLandings, then
// resolving each landing to its source node against the visited stamps.
//
//subsim:hotpath
func (s *Subsim) generateUniform(r *rng.Source, table []graph.InHeader, adj []int32, sentinel []bool, set []int32, base int) []int32 {
	for lo := base; lo < len(set); {
		level := set[lo:]
		lo = len(set)
		s.f.heads = gatherHeads(s.f.heads[:0], table, level)
		s.f.landings = s.drawLandings(r, s.f.landings[:0], s.f.heads)
		s.stats.EdgesExamined += int64(len(s.f.heads) + len(s.f.landings))
		for _, pos := range s.f.landings {
			w := adj[pos]
			if !s.t.seen(w) && s.t.activate(w, sentinel, &set) {
				return set
			}
		}
	}
	return set
}

// gatherHeads appends to dst the header, looked up in table, of every
// node of level that has in-edges.
//
//subsim:hotpath
func gatherHeads(dst, table []graph.InHeader, level []int32) []graph.InHeader {
	for _, u := range level {
		if h := table[u]; h.Deg > 0 {
			dst = append(dst, h)
		}
	}
	return dst
}

// drawLandings appends to landings the in-edge position of every landing
// of every node in heads, in order: one uniform decides whether a node's
// scan lands at all, and a geometric skip stream walks its landings.
//
//subsim:hotpath
func (s *Subsim) drawLandings(r *rng.Source, landings []int64, heads []graph.InHeader) []int64 {
	for i := range heads {
		h := &heads[i]
		u0 := r.Float64()
		if u0 >= h.Touched {
			continue
		}
		pos := firstLanding(u0, h.LogP, h.Deg) - 1
		for {
			landings = append(landings, h.Off+pos)
			skip := r.GeometricFromLog(h.LogP)
			if skip >= h.Deg-pos {
				break
			}
			pos += skip
		}
	}
	return landings
}

// generateSorted is the Section 3.3 index-free general-IC path over
// descending-sorted in-edges, with per-bucket first-landing shortcuts.
//
//subsim:hotpath
func (s *Subsim) generateSorted(r *rng.Source, g *graph.Graph, sentinel []bool, set []int32, base int) []int32 {
	// An unsigned cursor lets the compiler prove set[next] in bounds.
	for next := uint(base); next < uint(len(set)); next++ {
		u := set[next]
		sources, probs := g.InNeighbors(u)
		if len(sources) == 0 {
			continue
		}
		row := s.buckets[u]
		h := len(sources)
		s.stats.EdgesExamined++
		for j, start := 0, 1; start <= h; j, start = j+1, start*2 {
			bi := row[j]
			if bi.touched <= 0 {
				break // descending order: nothing further can be sampled
			}
			u0 := r.Float64()
			if u0 >= bi.touched {
				continue
			}
			end := start * 2
			if end > h+1 {
				end = h + 1
			}
			head := probs[start-1]
			pos := int64(start-1) + firstLanding(u0, bi.logHead, int64(end-start))
			for {
				s.stats.EdgesExamined++
				// Thin the Geometric(head) stream down to the true
				// probability of the landed position.
				if p := probs[pos-1]; p >= head || r.Float64()*head < p {
					w := sources[pos-1]
					if !s.t.seen(w) {
						if s.t.activate(w, sentinel, &set) {
							return set
						}
					}
				}
				skip := r.GeometricFromLog(bi.logHead)
				if skip >= int64(end)-pos {
					break
				}
				pos += skip
			}
		}
	}
	return set
}

func (s *Subsim) note(size int) {
	s.stats.Sets++
	s.stats.Nodes += int64(size)
	if s.t.hit {
		s.stats.SentinelHits++
	}
}
