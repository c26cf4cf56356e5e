// Package coverage implements the max-coverage machinery that turns a
// collection of random RR sets into a seed set: an inverted index from
// node to the RR sets containing it, the greedy algorithm of the paper's
// Algorithm 1 with CELF-style lazy marginal evaluation, the Revised
// Greedy out-degree tie-break of Algorithm 6, and the coverage upper
// bound Λᵘ (the maxMC prefix bound feeding Equation 2).
package coverage

import (
	"time"

	"subsim/internal/obs"
	"subsim/internal/obs/timeline"
	"subsim/internal/rrset"
)

// Index is an append-only collection of RR sets with a node→sets inverted
// index. Greedy selection runs are independent: they do not mutate the
// index permanently, so the same Index can be queried repeatedly as it
// grows (the doubling loops of IMM/OPIM-C/HIST rely on this).
//
// Storage is fully flat: the sets live in an arena-backed rrset.Store
// (one contiguous []int32 with per-set offsets), and the node→sets
// inverted index is a CSR pair (heads, postings) built by counting sort.
// The CSR is rebuilt lazily on the first query after a batch of appends,
// and each rebuild only scans the newly appended delta — old posting
// lists are block-copied — so across the doubling rounds of
// IMM/OPIM-C/HIST every posting is scanned O(1) times amortised.
//
// Index is not safe for concurrent mutation; build it single-threaded or
// guard it externally. Selection runs are single-threaded from the
// caller's point of view; with SetWorkers(w>1) the index internally
// parallelises its CSR rebuilds and the initial-gain pass of SelectSeeds
// across disjoint node ranges, producing byte-identical results to the
// serial path (see DESIGN.md "Parallel coverage pipeline").
type Index struct {
	n      int
	outDeg []int32 // optional out-degrees for the Revised-Greedy tie-break
	store  rrset.Store

	// CSR inverted index over the first `indexed` sets: the posting list
	// of node v is postings[heads[v]:heads[v+1]], ascending by set id.
	heads    []int64
	postings []int32
	indexed  int     // number of store sets covered by the CSR
	cursors  []int64 // reusable counting-sort scratch, len n, zeroed between builds

	covered []uint32 // per-set stamp; covered in run r iff covered[i] == r
	run     uint32

	// workers bounds the internal parallelism of index rebuilds and the
	// SelectSeeds initial-gain pass; 1 (the default) keeps every pass
	// goroutine-free.
	workers int

	// Rebuild double-buffer scratch (tentpole: the parallel build is
	// allocation-free in steady state). headsScratch/postScratch hold
	// the previous generation's buffers and are swapped with
	// heads/postings on every rebuild; postScratch grows geometrically.
	headsScratch []int64
	postScratch  []int32
	// Parallel-build scratch: per-worker delta counts (sharded counting
	// pass), per-range partial sums / base offsets, and the balanced
	// node-range boundaries of the placement pass.
	cntW     [][]int32
	partial  []int64
	rangeEnd []int

	// Selection scratch reused across SelectSeeds runs: the CELF heap
	// backing array and the frontier of the Λᵘ top-L walk.
	selEntries []celfEntry
	topWalk    []frontierItem[int64]

	// Optional observability hooks (nil-safe): build duration (total and
	// split by serial/parallel path) and postings placed per CSR rebuild.
	buildHist    *obs.Histogram
	buildSerHist *obs.Histogram
	buildParHist *obs.Histogram
	entriesCtr   *obs.Counter

	// tl, when non-nil, receives per-worker interval records for the
	// index-build, initial-gains and greedy-select phases. A nil tl (the
	// default) makes every record site a no-op through the nil-safe ring.
	tl *timeline.Timeline

	// Cached pprof/runtime-trace sections for the hot phases, refreshed
	// when the worker count changes; nil on an uninstrumented index.
	secBuild  *obs.PhaseSection
	secGains  *obs.PhaseSection
	secSelect *obs.PhaseSection
}

// NewIndex returns an empty index over n nodes. outDeg, when non-nil,
// supplies the out-degrees used by the Revised-Greedy tie-break; it must
// have length n.
func NewIndex(n int, outDeg []int32) *Index {
	if outDeg != nil && len(outDeg) != n {
		panic("coverage: outDeg length mismatch")
	}
	return &Index{
		n:       n,
		outDeg:  outDeg,
		heads:   make([]int64, n+1),
		cursors: make([]int64, n),
		workers: 1,
	}
}

// SetWorkers bounds the internal parallelism of CSR rebuilds and the
// SelectSeeds initial-gain pass. Values below 1 are clamped to 1 (the
// fully serial default). The worker count never changes any result —
// parallel and serial paths are byte-identical — it only decides how the
// node space and the delta data are partitioned.
func (x *Index) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	x.workers = w
	x.refreshSections()
}

// Workers returns the configured internal parallelism bound.
func (x *Index) Workers() int { return x.workers }

// SetBuildMetrics attaches observability instruments to the CSR rebuild:
// total observes nanoseconds per rebuild regardless of path, serial and
// parallel observe the same duration split by the path taken, entries
// counts postings placed. All are nil-safe; a nil tracer therefore
// threads through for free.
func (x *Index) SetBuildMetrics(total, serial, parallel *obs.Histogram, entries *obs.Counter) {
	x.buildHist = total
	x.buildSerHist = serial
	x.buildParHist = parallel
	x.entriesCtr = entries
	x.refreshSections()
}

// SetTimeline attaches a per-worker execution timeline: the CSR rebuild,
// the initial-gains pass and the greedy-select loop then leave interval
// records on the worker rings (see internal/obs/timeline). A nil tl — or
// never calling this — keeps every record site a zero-cost no-op. Must
// not be called while a query is in flight (the Index is not safe for
// concurrent mutation anyway).
func (x *Index) SetTimeline(tl *timeline.Timeline) {
	x.tl = tl
	x.refreshSections()
}

// refreshSections rebinds the cached pprof/trace sections to the current
// worker count. Sections are only materialised once any instrumentation
// is attached, so a plain NewIndex stays label-free.
func (x *Index) refreshSections() {
	if x.buildHist == nil && x.tl == nil {
		return
	}
	x.secBuild = obs.Section("index-build", x.workers)
	x.secGains = obs.Section("select-gains", x.workers)
	x.secSelect = obs.Section("select", 1)
}

// ring returns worker w's timeline ring (nil — the disabled ring — when
// no timeline is attached).
func (x *Index) ring(w int) *timeline.Ring { return x.tl.Worker(w) }

// NewIndexObs returns NewIndex wired to m's index-build instruments
// (build-duration histograms and postings counter) and, when m carries
// one, its execution timeline; a nil m yields a plain, uninstrumented
// index.
func NewIndexObs(n int, outDeg []int32, m *obs.MetricSet) *Index {
	idx := NewIndex(n, outDeg)
	if m != nil {
		idx.SetBuildMetrics(&m.IndexBuild, &m.IndexBuildSerial, &m.IndexBuildParallel, &m.IndexEntries)
		idx.SetTimeline(m.Timeline)
	}
	return idx
}

// Add appends one RR set to the index, copying it into the flat store.
// The inverted index is refreshed lazily on the next query.
func (x *Index) Add(set rrset.RRSet) {
	x.store.Append(set)
}

// Reserve pre-grows the flat store for about sets more RR sets
// totalling about nodes more ids.
func (x *Index) Reserve(sets, nodes int) { x.store.Reserve(sets, nodes) }

// Grow exposes the store's range-reservation API (rrset.Store.Grow) so
// a parallel splice can copy worker blocks into disjoint sub-ranges of
// the flat buffers: it appends exactly sets uninitialised set slots
// totalling exactly nodes ids and returns the destination regions plus
// the absolute node offset of data[0]. The caller must fill both
// regions completely — ends with absolute exclusive end offsets —
// before the next query; the inverted index then refreshes lazily
// exactly as it does after Add.
func (x *Index) Grow(sets, nodes int) (data []int32, ends []int64, nodeBase int64) {
	return x.store.Grow(sets, nodes)
}

// NumSets returns the number of RR sets indexed.
func (x *Index) NumSets() int { return x.store.NumSets() }

// N returns the number of nodes the index is defined over.
func (x *Index) N() int { return x.n }

// Set returns the i-th RR set as a read-only view into the flat store.
func (x *Index) Set(i int) []int32 { return x.store.Set(i) }

// MemoryBytes reports the approximate heap footprint of the flat set
// store plus the CSR inverted index.
func (x *Index) MemoryBytes() int64 {
	return x.store.MemoryBytes() + int64(cap(x.postings))*4 + int64(cap(x.heads))*8
}

// ensureIndexed brings the CSR inverted index (and the covered stamps)
// up to date with the store. Each call scans only the delta appended
// since the previous build: a counting pass bumps per-node delta counts,
// then a placement pass block-copies the old posting lists into their
// new positions and scatters the delta set ids behind them. Posting
// lists stay ascending by set id, matching the append order of the old
// slice-of-slices index exactly.
//
// With SetWorkers(w>1) and a large enough delta the rebuild runs the
// node-range-partitioned parallel path of parallel.go; both paths
// produce byte-identical heads/postings and reuse the same double
// buffers, so the choice is invisible outside this method.
//
//subsim:parallel
func (x *Index) ensureIndexed() {
	total := x.store.NumSets()
	if x.indexed == total {
		return
	}
	sec := x.secBuild.Enter()
	start := time.Now() //lint:allow timing (feeds the index-build duration histograms only)

	data := x.store.Data()
	ends := x.store.Ends()
	deltaFrom := int64(0)
	if x.indexed > 0 {
		deltaFrom = ends[x.indexed-1]
	}

	newHeads := x.growHeadsScratch()
	parallel := x.workers > 1 && int64(len(data))-deltaFrom >= int64(parallelBuildMinDelta)
	if parallel {
		// Per-worker interval records come out of the runTimed wrapper
		// around each parallel sub-pass (parallel.go).
		x.buildParallel(newHeads, data, ends, deltaFrom, total)
	} else {
		r := x.ring(0)
		t0 := r.Now()
		x.buildSerial(newHeads, data, ends, deltaFrom, total)
		r.Record(timeline.PhaseIndexBuild, t0, r.Now())
	}

	x.entriesCtr.Add(int64(len(data)) - deltaFrom) // delta postings placed
	x.indexed = total

	// Grow the covered stamps to match (geometrically, so the doubling
	// rounds do not reallocate on every delta); fresh sets carry stamp
	// 0, which is never equal to a live run id.
	if cap(x.covered) < total {
		newCap := 2 * cap(x.covered)
		if newCap < total {
			newCap = total
		}
		grown := make([]uint32, total, newCap)
		copy(grown, x.covered)
		x.covered = grown
	} else {
		tail := x.covered[len(x.covered):total]
		for i := range tail {
			tail[i] = 0 // recycled capacity may hold stale stamps
		}
		x.covered = x.covered[:total]
	}

	ns := time.Since(start).Nanoseconds() //lint:allow timing (feeds the index-build duration histograms only)
	x.buildHist.Observe(ns)
	if parallel {
		x.buildParHist.Observe(ns)
	} else {
		x.buildSerHist.Observe(ns)
	}
	sec.Exit()
}

// buildSerial is the single-threaded delta rebuild: counting pass over
// the delta, prefix-summed heads, block copy of the old posting lists,
// scatter of the delta ids.
//
//subsim:hotpath
func (x *Index) buildSerial(newHeads []int64, data []int32, ends []int64, deltaFrom int64, total int) {
	// Counting pass over the delta only.
	cnt := x.cursors // zeroed by the previous build (or construction)
	for _, v := range data[deltaFrom:] {
		cnt[v]++
	}

	// New heads: old per-node length + delta count, prefix-summed.
	var acc int64
	for v := 0; v < x.n; v++ {
		newHeads[v] = acc
		acc += (x.heads[v+1] - x.heads[v]) + cnt[v]
	}
	newHeads[x.n] = acc
	newPost := x.growPostScratch(acc)

	// Placement pass: block-copy the old posting lists, then scatter the
	// delta ids behind them (delta sets are scanned in ascending id
	// order, so lists stay sorted).
	for v := 0; v < x.n; v++ {
		oldLen := x.heads[v+1] - x.heads[v]
		if oldLen > 0 {
			copy(newPost[newHeads[v]:], x.postings[x.heads[v]:x.heads[v+1]])
		}
		cnt[v] = newHeads[v] + oldLen // becomes the scatter cursor
	}
	pos := deltaFrom
	for id := x.indexed; id < total; id++ {
		end := ends[id]
		for ; pos < end; pos++ {
			v := data[pos]
			newPost[cnt[v]] = int32(id)
			cnt[v]++
		}
	}

	// Reset the scratch for the next build.
	for v := range cnt {
		cnt[v] = 0
	}
	x.commitBuild(newHeads, newPost)
}

// growHeadsScratch returns the heads double buffer sized to n+1.
func (x *Index) growHeadsScratch() []int64 {
	if cap(x.headsScratch) < x.n+1 {
		x.headsScratch = make([]int64, x.n+1)
	}
	return x.headsScratch[:x.n+1]
}

// growPostScratch returns the postings double buffer resized to hold
// size entries, growing geometrically so repeated rebuilds amortise to
// zero allocations per posting.
func (x *Index) growPostScratch(size int64) []int32 {
	if int64(cap(x.postScratch)) < size {
		newCap := 2 * int64(cap(x.postScratch))
		if newCap < size {
			newCap = size
		}
		x.postScratch = make([]int32, newCap)
	}
	return x.postScratch[:size]
}

// commitBuild swaps the freshly built buffers in and retires the old
// generation as the next rebuild's scratch (double buffering).
func (x *Index) commitBuild(newHeads []int64, newPost []int32) {
	x.headsScratch = x.heads
	x.heads = newHeads
	x.postScratch = x.postings
	x.postings = newPost
}

// posting returns the CSR posting list of node v (the ids of the indexed
// RR sets containing v). Valid until the next rebuild.
func (x *Index) posting(v int32) []int32 {
	return x.postings[x.heads[v]:x.heads[v+1]]
}

// Degree returns the number of indexed RR sets containing v, i.e. the
// marginal coverage of v with respect to the empty seed set.
func (x *Index) Degree(v int32) int {
	x.ensureIndexed()
	return len(x.posting(v))
}

// CoverageOf returns Λ(S): the number of indexed RR sets intersecting the
// seed set.
func (x *Index) CoverageOf(seeds []int32) int64 {
	x.ensureIndexed()
	x.newRun()
	var cov int64
	for _, v := range seeds {
		for _, id := range x.posting(v) {
			if x.covered[id] != x.run {
				x.covered[id] = x.run
				cov++
			}
		}
	}
	return cov
}

func (x *Index) newRun() {
	x.run++
	if x.run == 0 {
		for i := range x.covered {
			x.covered[i] = 0
		}
		x.run = 1
	}
}

// GreedyOptions configures one seed-selection run.
type GreedyOptions struct {
	// K is the number of seeds to select (clamped to the node count).
	K int
	// Revised enables the Algorithm 6 tie-break: among nodes with the
	// same marginal coverage, prefer the larger out-degree. It requires
	// the index to have been built with out-degrees.
	Revised bool
	// Base is coverage already guaranteed outside this index — in HIST's
	// second phase, the number of RR sets that terminated on a sentinel.
	// It is added to the reported coverages and the upper bound.
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

// celfEntry is one lazy-greedy heap element: the node and its most
// recently computed marginal coverage, which by submodularity upper
// bounds its current marginal.
type celfEntry struct {
	gain int64
	node int32
	iter int32 // selection round the gain was computed in
}

// celfHeap is a hand-rolled max-heap over celfEntry. container/heap
// boxes every pushed and popped element into an interface, which put
// tens of thousands of allocations on the selection path; the direct
// implementation keeps Push/Pop allocation-free. The comparison is a
// total order (node ids are unique), so the pop sequence — and with it
// every greedy pick — is identical to the container/heap version.
type celfHeap struct {
	entries []celfEntry
	outDeg  []int32 // nil disables the out-degree tie-break
}

func (h *celfHeap) Len() int { return len(h.entries) }

// less orders entries by gain, then the optional out-degree tie-break,
// then node id (a total order, so pops are deterministic).
//
//subsim:hotpath
func (h *celfHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if h.outDeg != nil && h.outDeg[a.node] != h.outDeg[b.node] {
		return h.outDeg[a.node] > h.outDeg[b.node]
	}
	return a.node < b.node
}

// swap exchanges two entries in place.
//
//subsim:hotpath
func (h *celfHeap) swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }

// init establishes the heap invariant over the current entries in O(n).
func (h *celfHeap) init() {
	n := len(h.entries)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

// siftDown restores the invariant below i over the first n entries.
//
//subsim:hotpath
func (h *celfHeap) siftDown(i, n int) {
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
func (h *celfHeap) siftUp(i int) {
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
func (h *celfHeap) push(e celfEntry) {
	h.entries = append(h.entries, e)
	h.siftUp(len(h.entries) - 1)
}

// pop removes and returns the maximum entry.
//
//subsim:hotpath
func (h *celfHeap) pop() celfEntry {
	n := len(h.entries) - 1
	h.swap(0, n)
	top := h.entries[n]
	h.entries = h.entries[:n]
	h.siftDown(0, n)
	return top
}

// topSum returns the sum of the l largest gains stored in the heap — the
// top-L term of the Λᵘ prefix bound — without modifying the heap. less
// orders by gain first, so no entry's gain exceeds its parent's, and
// the largest gain not yet taken always sits on the frontier: the root,
// then the children of every entry already taken. The frontier is kept
// as a max-heap of positions, so l steps cost O(l log l) however many
// entries the heap holds. Zero gains are never enqueued (all gains are
// non-negative, so nothing below a zero can add to the sum). f is
// caller-owned frontier scratch, reused across walks.
//
//subsim:hotpath
func (h *celfHeap) topSum(l int, f *[]frontierItem[int64]) int64 {
	e := h.entries
	q := (*f)[:0]
	if len(e) > 0 && e[0].gain > 0 {
		q = frontierPush(q, e[0].gain, 0)
	}
	var sum int64
	for ; l > 0 && len(q) > 0; l-- {
		var top frontierItem[int64]
		top, q = frontierPop(q)
		sum += top.gain
		c := 2*int(top.pos) + 1
		for end := min(c+2, len(e)); c < end; c++ {
			if e[c].gain > 0 {
				q = frontierPush(q, e[c].gain, c)
			}
		}
	}
	*f = q
	return sum
}

// frontierItem is one candidate of a frontier walk (celfHeap.topSum,
// hllHeap.topSum): a heap position and the gain stored there. A walk
// keeps its candidates in a max-heap by gain, which holds at most l+1
// items for l steps.
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

// SelectSeeds runs the (revised) greedy max-coverage algorithm with lazy
// marginal evaluation and computes the Λᵘ upper bound along the way.
//
// Lazy evaluation is exact: a popped entry whose gain is stale is
// recomputed and pushed back, so the node actually selected in each round
// has the true maximum marginal coverage (with the configured
// tie-break applied to recomputed values).
//
// The upper bound is evaluated at prefix 0, at every power-of-two prefix,
// and at the final prefix; the minimum is returned. Skipping intermediate
// prefixes can only loosen the bound, never invalidate it. Each
// evaluation reads its top-L gains off the heap (celfHeap.topSum), so
// the bound costs O(L log L · log k) per run, independent of n.
//
// The first CELF round (the initial gains Degree(v) for all n nodes and
// the entry fill) is partitioned across workers when SetWorkers(w>1)
// was configured; the heapify and the lazy-greedy loop stay serial.
// Per-run scratch (heap backing array, walk frontier) is reused across
// calls, so repeated selection rounds on a warm index do not allocate
// beyond the returned Seeds/Coverage slices.
//
//subsim:parallel
func (x *Index) SelectSeeds(opt GreedyOptions) GreedyResult {
	k := opt.K
	if k > x.n {
		k = x.n
	}
	if k < 0 {
		k = 0
	}
	topL := opt.TopL
	if topL <= 0 {
		topL = k
	}
	var tie []int32
	if opt.Revised {
		if x.outDeg == nil {
			panic("coverage: Revised greedy requires out-degrees")
		}
		tie = x.outDeg
	}

	x.ensureIndexed()
	x.newRun()
	if cap(x.selEntries) < x.n {
		x.selEntries = make([]celfEntry, 0, x.n)
	}
	h := celfHeap{outDeg: tie}

	secG := x.secGains.Enter()
	h.entries = x.initialEntries(x.selEntries, opt.Exclude)
	h.init()
	secG.Exit()

	res := GreedyResult{
		Seeds:         make([]int32, 0, k),
		Coverage:      make([]int64, 0, k),
		CoverageUpper: int64(x.store.NumSets()) + opt.Base, // trivial bound; tightened below
	}

	// Upper bound at prefix 0: Base + sum of the topL largest initial
	// coverages.
	res.tightenUpper(opt.Base + h.topSum(topL, &x.topWalk))

	secS := x.secSelect.Enter()
	rSel := x.ring(0)
	tSel := rSel.Now()
	var cum int64
	nextBoundAt := 1
	for round := int32(1); int(round) <= k && h.Len() > 0; round++ {
		var pick celfEntry
		for {
			pick = h.pop()
			if pick.iter == round-1 || pick.gain == 0 {
				// Fresh (computed against the current covered state), or
				// zero — no stale entry can beat zero since gains are
				// non-negative.
				break
			}
			// Stale: recompute the exact marginal and reinsert.
			pick.gain = x.marginal(pick.node)
			pick.iter = round - 1
			h.push(pick)
		}
		v := pick.node
		for _, id := range x.posting(v) {
			if x.covered[id] != x.run {
				x.covered[id] = x.run
				cum++
			}
		}
		res.Seeds = append(res.Seeds, v)
		res.Coverage = append(res.Coverage, opt.Base+cum)

		if int(round) == nextBoundAt || int(round) == k {
			// The heap holds exactly the unselected candidates, and each
			// stored gain upper-bounds its node's current marginal
			// (submodularity), so their topL sum dominates the true maxMC
			// sum at this prefix.
			res.tightenUpper(opt.Base + cum + h.topSum(topL, &x.topWalk))
			nextBoundAt *= 2
		}
	}
	rSel.Record(timeline.PhaseSelect, tSel, rSel.Now())
	secS.Exit()
	x.selEntries = h.entries[:0] // push may have regrown the backing array
	return res
}

// marginal returns the exact marginal coverage of v against the current
// covered stamps.
//
//subsim:hotpath
func (x *Index) marginal(v int32) int64 {
	var g int64
	for _, id := range x.posting(v) {
		if x.covered[id] != x.run {
			g++
		}
	}
	return g
}

func (r *GreedyResult) tightenUpper(bound int64) {
	if bound < r.CoverageUpper {
		r.CoverageUpper = bound
	}
}
