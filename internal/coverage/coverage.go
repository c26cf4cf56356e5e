// Package coverage implements the max-coverage machinery that turns a
// collection of random RR sets into a seed set: the greedy algorithm of
// the paper's Algorithm 1 with CELF-style lazy marginal evaluation, the
// Revised Greedy out-degree tie-break of Algorithm 6, and the coverage
// upper bound Λᵘ (the maxMC prefix bound feeding Equation 2).
//
// Two backends implement the Estimator contract: the exact engine
// (*Sharded, per-shard RR arenas with CSR node→sets indexes, see
// sharded.go) and the HyperLogLog sketch backend (*HLL, see hll.go).
// Both drive the same CELF heap defined here.
package coverage

// GreedyOptions configures one seed-selection run.
type GreedyOptions struct {
	// K is the number of seeds to select (clamped to the node count).
	K int
	// Revised enables the Algorithm 6 tie-break: among nodes with the
	// same marginal coverage, prefer the larger out-degree. It requires
	// the estimator to have been built with out-degrees.
	Revised bool
	// Base is coverage already guaranteed outside this estimator — in
	// HIST's second phase, the number of RR sets that terminated on a
	// sentinel. It is added to the reported coverages and the upper bound.
	Base int64
	// TopL is the number of largest marginal coverages summed in the Λᵘ
	// prefix bound; it defaults to K. HIST's second phase selects k-b
	// seeds but bounds the size-k optimum, so it passes TopL = k.
	TopL int
	// Exclude marks nodes (indexed by id) that must not be selected —
	// HIST's second phase excludes the sentinel set, which would
	// otherwise be re-picked as zero-gain nodes via the out-degree
	// tie-break.
	Exclude []bool
}

// GreedyResult is the outcome of a selection run.
type GreedyResult struct {
	// Seeds are the selected nodes in pick order (length min(K, n)).
	Seeds []int32
	// Coverage[i] is Base + Λ(S*_{i+1}), the coverage of the first i+1
	// seeds.
	Coverage []int64
	// CoverageUpper is Λᵘ: an upper bound on Base + Λ(S) for any seed
	// set of size TopL, per the maxMC prefix construction.
	CoverageUpper int64
}

// TotalCoverage returns the coverage of the full selected set, or Base
// when no seed was selected.
func (g GreedyResult) TotalCoverage(base int64) int64 {
	if len(g.Coverage) == 0 {
		return base
	}
	return g.Coverage[len(g.Coverage)-1]
}

func (r *GreedyResult) tightenUpper(bound int64) {
	if bound < r.CoverageUpper {
		r.CoverageUpper = bound
	}
}

// selectParams resolves the per-run selection parameters every backend
// shares: K clamped to [0, n], TopL defaulted to K, and the out-degree
// tie-break array (nil unless opt.Revised, which requires outDeg).
func selectParams(opt GreedyOptions, n int, outDeg []int32) (k, topL int, tie []int32) {
	k = min(max(opt.K, 0), n)
	topL = opt.TopL
	if topL <= 0 {
		topL = k
	}
	if opt.Revised {
		if outDeg == nil {
			panic("coverage: Revised greedy requires out-degrees")
		}
		tie = outDeg
	}
	return k, topL, tie
}

// celfEntry is one lazy-greedy heap element: the node and its most
// recently computed marginal coverage, which by submodularity upper
// bounds its current marginal. The exact engine stores integer counts,
// the sketch backend float estimates.
type celfEntry[G int64 | float64] struct {
	gain G
	node int32
	iter int32 // selection round the gain was computed in
}

// celfHeap is a hand-rolled max-heap over celfEntry. container/heap
// boxes every pushed and popped element into an interface, which put
// tens of thousands of allocations on the selection path; the direct
// implementation keeps Push/Pop allocation-free. The comparison is a
// total order (node ids are unique) and never tests gains for equality,
// so the pop sequence — and with it every greedy pick — is
// deterministic.
type celfHeap[G int64 | float64] struct {
	entries []celfEntry[G]
	outDeg  []int32 // nil disables the out-degree tie-break
}

func (h *celfHeap[G]) Len() int { return len(h.entries) }

// less orders entries by gain, then the optional out-degree tie-break,
// then node id.
//
//subsim:hotpath
func (h *celfHeap[G]) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.gain > b.gain {
		return true
	}
	if a.gain < b.gain {
		return false
	}
	if h.outDeg != nil && h.outDeg[a.node] != h.outDeg[b.node] {
		return h.outDeg[a.node] > h.outDeg[b.node]
	}
	return a.node < b.node
}

// swap exchanges two entries in place.
//
//subsim:hotpath
func (h *celfHeap[G]) swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }

// init establishes the heap invariant over the current entries in O(n).
func (h *celfHeap[G]) init() {
	n := len(h.entries)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

// siftDown restores the invariant below i over the first n entries.
//
//subsim:hotpath
func (h *celfHeap[G]) siftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// siftUp restores the invariant above i.
//
//subsim:hotpath
func (h *celfHeap[G]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// push adds an entry, keeping the invariant.
//
//subsim:hotpath
func (h *celfHeap[G]) push(e celfEntry[G]) {
	h.entries = append(h.entries, e)
	h.siftUp(len(h.entries) - 1)
}

// pop removes and returns the maximum entry.
//
//subsim:hotpath
func (h *celfHeap[G]) pop() celfEntry[G] {
	n := len(h.entries) - 1
	h.swap(0, n)
	top := h.entries[n]
	h.entries = h.entries[:n]
	h.siftDown(0, n)
	return top
}

// topSum returns the sum of the l largest positive gains stored in the
// heap — the top-L term of the Λᵘ prefix bound — without modifying the
// heap. less orders by gain first, so no entry's gain exceeds its
// parent's, and the largest gain not yet taken always sits on the
// frontier: the root, then the children of every entry already taken.
// The frontier is kept as a max-heap of positions, so l steps cost
// O(l log l) however many entries the heap holds. Non-positive gains are
// never enqueued (gains are non-negative, so nothing below a zero can
// add to the sum).
//
// The walk takes values in descending order; they are buffered in vals
// and summed ascending, the order in which a sorted top-L buffer sums
// them, so a float bound's rounding — and with it every bit of the
// bound — is independent of how the values were found. Integer sums do
// not depend on the order at all. f and vals are caller-owned scratch,
// reused across walks.
//
//subsim:hotpath
func (h *celfHeap[G]) topSum(l int, f *[]frontierItem[G], vals *[]G) G {
	e := h.entries
	q := (*f)[:0]
	if len(e) > 0 && e[0].gain > 0 {
		q = frontierPush(q, e[0].gain, 0)
	}
	taken := (*vals)[:0]
	for len(taken) < l && len(q) > 0 {
		var top frontierItem[G]
		top, q = frontierPop(q)
		taken = append(taken, top.gain)
		c := 2*int(top.pos) + 1
		for end := min(c+2, len(e)); c < end; c++ {
			if e[c].gain > 0 {
				q = frontierPush(q, e[c].gain, c)
			}
		}
	}
	var sum G
	for i := len(taken) - 1; i >= 0; i-- {
		sum += taken[i]
	}
	*f, *vals = q, taken
	return sum
}

// frontierItem is one candidate of a celfHeap.topSum walk: a heap
// position and the gain stored there. A walk keeps its candidates in a
// max-heap by gain, which holds at most l+1 items for l steps.
type frontierItem[G int64 | float64] struct {
	gain G
	pos  int32
}

// frontierPush adds the candidate at heap position pos to the frontier
// q and returns the grown frontier.
//
//subsim:hotpath
func frontierPush[G int64 | float64](q []frontierItem[G], gain G, pos int) []frontierItem[G] {
	q = append(q, frontierItem[G]{gain: gain, pos: int32(pos)})
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].gain >= q[i].gain {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	return q
}

// frontierPop removes the candidate with the largest gain from the
// non-empty frontier q and returns it with the shrunk frontier.
//
//subsim:hotpath
func frontierPop[G int64 | float64](q []frontierItem[G]) (frontierItem[G], []frontierItem[G]) {
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].gain > q[c].gain {
			c++
		}
		if q[i].gain >= q[c].gain {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top, q
}
