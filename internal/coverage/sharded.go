// Sharded is the exact coverage engine.
//
// It keeps S independent shards, each owning its RR sets in a
// shard-local rrset.Arena that IS its store segment — the batcher
// generates straight into it (Batcher.FillSharded), so no set is ever
// copied between generation and indexing — plus a shard-local CSR
// node→sets index and shard-local covered stamps. Shards never merge:
// every query the greedy algorithms issue is an integer sum over shards.
// im.NewEstimator builds one shard per worker; S=1 is the serial case.
//
// # Why this is exact and worker-count independent
//
// Each RR set's content is a pure function of (seed, global index) —
// the batcher reseeds a per-set RNG stream — and the shard assignment
// is the pure function ShardOf(index, S) = index mod S. Degree,
// CoverageOf, every CELF marginal gain, and the Λᵘ prefix bound are
// sums of per-set indicator terms, and integer addition is associative
// and commutative, so ANY partition of the sets into shards yields the
// same totals. Sharded therefore returns byte-identical seeds, stats,
// and certified bounds for every shard and worker count, which the
// equivalence and conformance suites pin against the S=1, W=1 engine.
//
// # Reduce ordering contract
//
// Parallel passes aggregate through per-lane partials that the
// coordinator folds with reducePartials: a fixed pairwise tree (fold
// p[i] += p[i+h] with halving h), never a racy accumulation. For the
// integer sums of this backend the order cannot change the result; the
// fixed tree is still the documented contract so a future float-valued
// sharded backend inherits a deterministic reduction for free.
//
// # Parallelism shape
//
//   - CSR rebuilds: each dirty shard rebuilds its own index (a delta
//     counting sort) with no cross-shard data; lanes pick up shards
//     round-robin.
//   - Seed selection: one serial pass fills the bucket queue (queue.go)
//     with each node's posting length summed over all shards. After
//     that, the queue top's stale marginal is recomputed as per-shard
//     partials (each lane walks only its shards' posting lists against
//     its shards' covered stamps — disjoint state), and the winning
//     seed's covered-bit update fans out the same way, each recorded as
//     timeline.PhaseReduce so the rounds are visible as parallel in the
//     timeline digest.
package coverage

import (
	"time"

	"subsim/internal/obs"
	"subsim/internal/obs/timeline"
	"subsim/internal/rrset"
)

// parallelReduceMinPostings is the posting mass (across all shards) of
// the heap-top node below which a marginal recompute or covered-bit
// update stays serial; tiny posting lists are cheaper to walk inline
// than to fan out. A var so tests can force the parallel reduce on
// small inputs.
var parallelReduceMinPostings = 1 << 11

// ShardOf is the pure shard-assignment function: the RR set with global
// index idx lives in shard idx mod shards. Both ingestion paths route
// through it — Batcher.FillSharded by generation index, the generic
// AbsorbArena by collection index — so placement never depends on
// scheduling, only on (index, shard count).
func ShardOf(idx int64, shards int) int {
	return int(idx % int64(shards))
}

// covShard is one shard: its arena (the store segment the batcher
// generates into), its CSR inverted index over the arena's sets
// (shard-local set ids = arena positions), and its covered stamps.
type covShard struct {
	arena rrset.Arena

	// CSR inverted index over the first `indexed` arena sets; the
	// posting list of node v is postings[heads[v]:heads[v+1]],
	// ascending by shard-local set id.
	heads    []int64
	postings []int32
	indexed  int
	cursors  []int64 // counting-sort scratch, len n, zeroed between builds

	covered []uint32 // per-set stamp; covered in run r iff covered[i] == r
	run     uint32

	// Rebuild double buffers: the previous generation's heads and
	// postings, swapped with the live ones on every delta build.
	headsScratch []int64
	postScratch  []int32
}

// Sharded is the exact coverage estimator. It is append-only and not
// safe for concurrent mutation; SetWorkers bounds internal parallelism
// and never changes any result. The shard count is structural — fixed at
// construction, it decides data placement — while the worker bound only
// decides how many lanes walk the shards.
type Sharded struct {
	n       int
	outDeg  []int32 // optional out-degrees for the Revised-Greedy tie-break
	shards  []covShard
	workers int

	// Selection scratch reused across SelectSeeds runs: the bucket
	// queue, the Revised-Greedy key order (nodes by out-degree
	// descending, then id; built by the first Revised run), and the
	// per-lane reduce partials.
	queue   bucketQueue
	revised []int32
	partial []int64

	// Observability hooks (nil-safe): rebuild durations land on the
	// index-build histograms, split by the serial/parallel path taken
	// across shards.
	buildHist    *obs.Histogram
	buildSerHist *obs.Histogram
	buildParHist *obs.Histogram
	entriesCtr   *obs.Counter

	tl *timeline.Timeline

	secBuild  *obs.PhaseSection
	secGains  *obs.PhaseSection
	secSelect *obs.PhaseSection
	secReduce *obs.PhaseSection
}

// NewSharded returns an empty sharded estimator over n nodes with the
// given shard count (clamped to >= 1). outDeg, when non-nil, supplies
// the out-degrees for the Revised-Greedy tie-break; it must have
// length n.
func NewSharded(n int, outDeg []int32, shards int) *Sharded {
	if outDeg != nil && len(outDeg) != n {
		panic("coverage: outDeg length mismatch")
	}
	if shards < 1 {
		shards = 1
	}
	x := &Sharded{
		n:       n,
		outDeg:  outDeg,
		shards:  make([]covShard, shards),
		workers: 1,
	}
	for s := range x.shards {
		sh := &x.shards[s]
		sh.heads = make([]int64, n+1)
		sh.cursors = make([]int64, n)
	}
	return x
}

// NewShardedObs is NewSharded wired to m's index-build instruments and,
// when m carries one, its execution timeline; a nil m yields a plain,
// uninstrumented estimator.
func NewShardedObs(n int, outDeg []int32, shards int, m *obs.MetricSet) *Sharded {
	x := NewSharded(n, outDeg, shards)
	if m != nil {
		x.SetBuildMetrics(&m.IndexBuild, &m.IndexBuildSerial, &m.IndexBuildParallel, &m.IndexEntries)
		x.SetTimeline(m.Timeline)
	}
	return x
}

// NumShards returns the structural shard count.
func (x *Sharded) NumShards() int { return len(x.shards) }

// ShardArena returns shard s's arena — the store segment the batcher's
// direct fill path generates into. The caller appends
// committed sets (and may DropLast sentinel hits); the shard's CSR
// picks the delta up lazily on the next query.
func (x *Sharded) ShardArena(s int) *rrset.Arena { return &x.shards[s].arena }

// SetWorkers bounds the internal parallelism of shard rebuilds and the
// per-round reduces (clamped to >= 1). It never changes any result.
func (x *Sharded) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	x.workers = w
	x.refreshSections()
}

// Workers returns the configured parallelism bound.
func (x *Sharded) Workers() int { return x.workers }

// SetBuildMetrics attaches the CSR-rebuild instruments (all nil-safe):
// total observes nanoseconds per rebuild, serial and parallel the same
// duration split by the path taken, entries counts postings placed.
func (x *Sharded) SetBuildMetrics(total, serial, parallel *obs.Histogram, entries *obs.Counter) {
	x.buildHist = total
	x.buildSerHist = serial
	x.buildParHist = parallel
	x.entriesCtr = entries
	x.refreshSections()
}

// SetTimeline attaches a per-worker execution timeline (nil keeps every
// record site a zero-cost no-op). Must not be called while a query is
// in flight.
func (x *Sharded) SetTimeline(tl *timeline.Timeline) {
	x.tl = tl
	x.refreshSections()
}

// refreshSections rebinds the cached pprof/trace sections to the
// current worker count; sections materialise only once instrumentation
// is attached.
func (x *Sharded) refreshSections() {
	if x.buildHist == nil && x.tl == nil {
		return
	}
	x.secBuild = obs.Section("index-build", x.workers)
	x.secGains = obs.Section("select-gains", 1)
	x.secSelect = obs.Section("select", 1)
	x.secReduce = obs.Section("reduce", x.workers)
}

// ring returns worker w's timeline ring (nil when no timeline is
// attached).
func (x *Sharded) ring(w int) *timeline.Ring { return x.tl.Worker(w) }

// runTimed is runParallel with per-worker timeline records: when a
// timeline is attached, worker w's execution of fn lands as one interval
// on ring w. The wrapper closure exists only on the instrumented path,
// so the uninstrumented pipeline stays allocation-identical. The
// single-writer discipline holds because runParallel joins before
// returning: the goroutine acting as worker w is ring w's only writer
// for the duration of the pass.
func (x *Sharded) runTimed(phase timeline.Phase, workers int, fn func(w int)) {
	if x.tl == nil {
		runParallel(workers, fn)
		return
	}
	runParallel(workers, func(w int) {
		r := x.tl.Worker(w)
		t0 := r.Now()
		fn(w)
		r.Record(phase, t0, r.Now())
	})
}

// growPartial sizes the per-lane partial-aggregate scratch.
func (x *Sharded) growPartial(lanes int) {
	if cap(x.partial) < lanes {
		x.partial = make([]int64, lanes)
	}
	x.partial = x.partial[:lanes]
}

// reducePartials folds the per-lane partials in the fixed pairwise tree
// documented in the package comment: halve the live prefix, adding the
// upper half onto the lower, until one value remains. The fold mutates
// p (it is lane scratch).
func reducePartials(p []int64) int64 {
	if len(p) == 0 {
		return 0
	}
	for n := len(p); n > 1; {
		h := (n + 1) / 2
		for i := 0; i+h < n; i++ {
			p[i] += p[i+h]
		}
		n = h
	}
	return p[0]
}

// N returns the number of nodes the estimator is defined over.
func (x *Sharded) N() int { return x.n }

// NumSets returns the number of RR sets across all shards.
func (x *Sharded) NumSets() int {
	total := 0
	for s := range x.shards {
		total += x.shards[s].arena.Len()
	}
	return total
}

// MemoryBytes reports the approximate heap footprint of the shard
// arenas plus their CSR indexes.
func (x *Sharded) MemoryBytes() int64 {
	var b int64
	for s := range x.shards {
		sh := &x.shards[s]
		b += sh.arena.MemoryBytes()
		b += int64(cap(sh.postings))*4 + int64(cap(sh.heads))*8
	}
	return b
}

// Kind identifies the exact backend.
func (x *Sharded) Kind() EstimatorKind { return EstimatorExact }

// RelError is 0: shard sums count coverage exactly.
func (x *Sharded) RelError() float64 { return 0 }

// Add absorbs one RR set, routed by ShardOf over the current
// collection index.
func (x *Sharded) Add(set rrset.RRSet) {
	s := ShardOf(int64(x.NumSets()), len(x.shards))
	x.shards[s].arena.Append(set)
}

// AbsorbArena absorbs a flat arena buffer, skipping sentinel-terminated
// sets and routing each kept set to ShardOf(collection index, S). It is
// the generic ingestion path; Batcher.FillSharded bypasses it by
// generating into the shard arenas directly.
func (x *Sharded) AbsorbArena(data []int32, ends []int64, sentinel []bool) int64 {
	idx := int64(x.NumSets())
	shards := len(x.shards)
	var hits int64
	start := int64(0)
	for _, end := range ends {
		if sentinel != nil && end > start && sentinel[data[end-1]] {
			hits++
			start = end
			continue
		}
		x.shards[ShardOf(idx, shards)].arena.Append(data[start:end])
		idx++
		start = end
	}
	return hits
}

// ensureIndexed brings every shard's CSR (and covered stamps) up to
// date with its arena. Dirty shards rebuild independently — a
// shard-local delta counting sort — so there is no merge step; with SetWorkers(w>1) and a large enough total delta
// the rebuilds fan out across lanes, each lane walking shards
// round-robin.
//
//subsim:parallel
func (x *Sharded) ensureIndexed() {
	var delta int64
	dirty := 0
	for s := range x.shards {
		sh := &x.shards[s]
		if sh.indexed != sh.arena.Len() {
			dirty++
			delta += sh.deltaNodes()
		}
	}
	if dirty == 0 {
		return
	}
	sec := x.secBuild.Enter()
	start := time.Now() //lint:allow timing (feeds the index-build duration histograms only)

	lanes := x.workers
	if lanes > len(x.shards) {
		lanes = len(x.shards)
	}
	parallel := lanes > 1 && delta >= int64(parallelBuildMinDelta)
	if parallel {
		x.runTimed(timeline.PhaseIndexBuild, lanes, func(l int) {
			for s := l; s < len(x.shards); s += lanes {
				x.shards[s].build(x.n)
			}
		})
	} else {
		r := x.ring(0)
		t0 := r.Now()
		for s := range x.shards {
			x.shards[s].build(x.n)
		}
		r.Record(timeline.PhaseIndexBuild, t0, r.Now())
	}

	x.entriesCtr.Add(delta)
	ns := time.Since(start).Nanoseconds() //lint:allow timing (feeds the index-build duration histograms only)
	x.buildHist.Observe(ns)
	if parallel {
		x.buildParHist.Observe(ns)
	} else {
		x.buildSerHist.Observe(ns)
	}
	sec.Exit()
}

// deltaNodes returns the number of node ids appended since the shard's
// last build.
func (sh *covShard) deltaNodes() int64 {
	from := int64(0)
	if sh.indexed > 0 {
		from = sh.arena.Ends()[sh.indexed-1]
	}
	return int64(sh.arena.NumNodes()) - from
}

// build is the shard-local delta CSR rebuild: counting pass over the
// delta, prefix-summed heads, block copy of the old posting lists,
// scatter of the delta ids. Each rebuild only scans the sets appended
// since the previous one — old posting lists are block-copied — so
// across the doubling rounds of IMM/OPIM-C/HIST every posting is
// scanned O(1) times amortised. No-op on a clean shard.
//
//subsim:hotpath
func (sh *covShard) build(n int) {
	total := sh.arena.Len()
	if sh.indexed == total {
		return
	}
	data := sh.arena.Data()
	ends := sh.arena.Ends()
	deltaFrom := int64(0)
	if sh.indexed > 0 {
		deltaFrom = ends[sh.indexed-1]
	}

	// Counting pass over the delta only.
	cnt := sh.cursors // zeroed by the previous build (or construction)
	for _, v := range data[deltaFrom:] {
		cnt[v]++
	}

	// New heads: old per-node length + delta count, prefix-summed.
	if cap(sh.headsScratch) < n+1 {
		sh.headsScratch = make([]int64, n+1)
	}
	newHeads := sh.headsScratch[:n+1]
	var acc int64
	for v := 0; v < n; v++ {
		newHeads[v] = acc
		acc += (sh.heads[v+1] - sh.heads[v]) + cnt[v]
	}
	newHeads[n] = acc
	if int64(cap(sh.postScratch)) < acc {
		newCap := 2 * int64(cap(sh.postScratch))
		if newCap < acc {
			newCap = acc
		}
		sh.postScratch = make([]int32, newCap)
	}
	newPost := sh.postScratch[:acc]

	// Placement pass: block-copy the old posting lists, then scatter the
	// delta ids behind them (ascending shard-local id order keeps every
	// list sorted).
	for v := 0; v < n; v++ {
		oldLen := sh.heads[v+1] - sh.heads[v]
		if oldLen > 0 {
			copy(newPost[newHeads[v]:], sh.postings[sh.heads[v]:sh.heads[v+1]])
		}
		cnt[v] = newHeads[v] + oldLen // becomes the scatter cursor
	}
	pos := deltaFrom
	for id := sh.indexed; id < total; id++ {
		end := ends[id]
		for ; pos < end; pos++ {
			v := data[pos]
			newPost[cnt[v]] = int32(id)
			cnt[v]++
		}
	}
	for v := range cnt {
		cnt[v] = 0
	}

	// Double-buffer swap, then grow the covered stamps (geometrically;
	// fresh sets carry stamp 0, never a live run id).
	sh.headsScratch = sh.heads
	sh.heads = newHeads
	sh.postScratch = sh.postings
	sh.postings = newPost
	sh.indexed = total
	if cap(sh.covered) < total {
		newCap := 2 * cap(sh.covered)
		if newCap < total {
			newCap = total
		}
		grown := make([]uint32, total, newCap)
		copy(grown, sh.covered)
		sh.covered = grown
	} else {
		tail := sh.covered[len(sh.covered):total]
		for i := range tail {
			tail[i] = 0 // recycled capacity may hold stale stamps
		}
		sh.covered = sh.covered[:total]
	}
}

// posting returns the shard's CSR posting list of node v.
func (sh *covShard) posting(v int32) []int32 {
	return sh.postings[sh.heads[v]:sh.heads[v+1]]
}

func (sh *covShard) newRun() {
	sh.run++
	if sh.run == 0 {
		for i := range sh.covered {
			sh.covered[i] = 0
		}
		sh.run = 1
	}
}

// marginal returns the shard's contribution to the exact marginal
// coverage of v against its current covered stamps.
//
//subsim:hotpath
func (sh *covShard) marginal(v int32) int64 {
	var g int64
	for _, id := range sh.posting(v) {
		if sh.covered[id] != sh.run {
			g++
		}
	}
	return g
}

// cover stamps every uncovered set of v's shard posting list and
// returns the number newly covered — the shard's partial of the
// seed-commit update.
//
//subsim:hotpath
func (sh *covShard) cover(v int32) int64 {
	var d int64
	for _, id := range sh.posting(v) {
		if sh.covered[id] != sh.run {
			sh.covered[id] = sh.run
			d++
		}
	}
	return d
}

// Degree returns the exact number of absorbed RR sets containing v:
// the sum of v's posting-list lengths over all shards.
func (x *Sharded) Degree(v int32) int {
	x.ensureIndexed()
	return int(x.postingMass(v))
}

// CoverageOf returns Λ(S) exactly: each shard counts the sets its
// segment contributes (under a fresh run), and the counts add up
// because the shards partition the collection.
func (x *Sharded) CoverageOf(seeds []int32) int64 {
	x.ensureIndexed()
	var cov int64
	for s := range x.shards {
		sh := &x.shards[s]
		sh.newRun()
		for _, v := range seeds {
			for _, id := range sh.posting(v) {
				if sh.covered[id] != sh.run {
					sh.covered[id] = sh.run
					cov++
				}
			}
		}
	}
	return cov
}

// postingMass returns the total posting-list length of v across shards,
// the fan-out decision input for the per-round reduces.
func (x *Sharded) postingMass(v int32) int64 {
	var m int64
	for s := range x.shards {
		sh := &x.shards[s]
		m += sh.heads[v+1] - sh.heads[v]
	}
	return m
}

// marginal returns the exact marginal coverage of v: per-shard partials
// tree-reduced in the fixed lane order. Heavy posting lists fan out
// across lanes (each lane owning whole shards, so covered-stamp reads
// never cross a lane boundary); light ones stay inline.
//
//subsim:parallel
func (x *Sharded) marginal(v int32) int64 {
	shards := len(x.shards)
	lanes := x.workers
	if lanes > shards {
		lanes = shards
	}
	if lanes > 1 && x.postingMass(v) >= int64(parallelReduceMinPostings) {
		sec := x.secReduce.Enter()
		x.growPartial(lanes)
		x.runTimed(timeline.PhaseReduce, lanes, func(l int) {
			var g int64
			for s := l; s < shards; s += lanes {
				g += x.shards[s].marginal(v)
			}
			x.partial[l] = g
		})
		sec.Exit()
		return reducePartials(x.partial[:lanes])
	}
	var g int64
	for s := range x.shards {
		g += x.shards[s].marginal(v)
	}
	return g
}

// commitSeed stamps the sets of the freshly selected seed as covered in
// every shard and returns the total newly covered — the fan-out twin of
// marginal, with per-shard deltas tree-reduced the same way.
//
//subsim:parallel
func (x *Sharded) commitSeed(v int32) int64 {
	shards := len(x.shards)
	lanes := x.workers
	if lanes > shards {
		lanes = shards
	}
	if lanes > 1 && x.postingMass(v) >= int64(parallelReduceMinPostings) {
		sec := x.secReduce.Enter()
		x.growPartial(lanes)
		x.runTimed(timeline.PhaseReduce, lanes, func(l int) {
			var d int64
			for s := l; s < shards; s += lanes {
				d += x.shards[s].cover(v)
			}
			x.partial[l] = d
		})
		sec.Exit()
		return reducePartials(x.partial[:lanes])
	}
	var d int64
	for s := range x.shards {
		d += x.shards[s].cover(v)
	}
	return d
}

// revisedOrder returns the Revised-Greedy key order: every node, sorted
// by out-degree descending and then by id, so that a node's key (its
// position) orders ties the way Algorithm 6 breaks them. A counting sort
// builds it on the first Revised run; out-degrees are fixed for the
// estimator's lifetime.
func (x *Sharded) revisedOrder() []int32 {
	if x.revised != nil {
		return x.revised
	}
	var maxDeg int32
	for _, d := range x.outDeg {
		maxDeg = max(maxDeg, d)
	}
	// next[b] is the next position for a node of out-degree maxDeg-b.
	next := make([]int32, maxDeg+1)
	for _, d := range x.outDeg {
		next[maxDeg-d]++
	}
	var pos int32
	for b, c := range next {
		next[b] = pos
		pos += c
	}
	order := make([]int32, x.n)
	for v, d := range x.outDeg {
		order[next[maxDeg-d]] = int32(v)
		next[maxDeg-d]++
	}
	x.revised = order
	return order
}

// fillQueue is the first greedy round: it stores every non-excluded node
// in the emptied bucket queue at its initial gain, the node's posting
// lengths summed over all shards. order maps keys to nodes (nil: a key
// is the node id). Keys are added in descending order, so each bucket
// list starts out ascending and its first sort finds it in order.
//
//subsim:hotpath
func (x *Sharded) fillQueue(order []int32, exclude []bool) {
	q := &x.queue
	for key := int32(x.n) - 1; key >= 0; key-- {
		v := key
		if order != nil {
			v = order[key]
		}
		if exclude != nil && exclude[v] {
			continue
		}
		var g int64
		for s := range x.shards {
			sh := &x.shards[s]
			g += sh.heads[v+1] - sh.heads[v]
		}
		q.add(key, int(g), 0)
	}
	q.settle()
}

// SelectSeeds runs the (revised) greedy max-coverage algorithm with lazy
// marginal evaluation and computes the Λᵘ upper bound along the way.
//
// Candidates sit in a bucket queue keyed by their stored gain (see
// bucketQueue), ordered by gain and then by key: the node id, or under
// Revised the node's position in revisedOrder. Lazy evaluation is exact:
// a stale top is recomputed and moved down to its new gain, so the node
// actually selected in each round has the true maximum marginal coverage
// (with the configured tie-break applied to recomputed values). Every
// round's heavy work — stale-top marginal recomputes and the covered-bit
// commit — fans out across shards and is tree-reduced once the posting
// mass warrants it.
//
// The upper bound is evaluated at prefix 0, at every power-of-two prefix,
// and at the final prefix; the minimum is returned. Skipping intermediate
// prefixes can only loosen the bound, never invalidate it. Each
// evaluation sums its top-L gains off the bucket counts from the top
// gain down.
//
// The queue's scratch is reused across calls, so repeated selection
// rounds on a warm estimator do not allocate beyond the returned
// Seeds/Coverage slices (and the queue's geometric growth as θ grows).
//
//subsim:parallel
func (x *Sharded) SelectSeeds(opt GreedyOptions) GreedyResult {
	k, topL, tie := selectParams(opt, x.n, x.outDeg)
	var order []int32
	if tie != nil {
		order = x.revisedOrder()
	}

	x.ensureIndexed()
	for s := range x.shards {
		x.shards[s].newRun()
	}
	q := &x.queue
	q.reset(x.n)

	secG := x.secGains.Enter()
	rG := x.ring(0)
	tG := rG.Now()
	x.fillQueue(order, opt.Exclude)
	rG.Record(timeline.PhaseGains, tG, rG.Now())
	secG.Exit()

	res := GreedyResult{
		Seeds:         make([]int32, 0, k),
		Coverage:      make([]int64, 0, k),
		CoverageUpper: int64(x.NumSets()) + opt.Base, // trivial bound; tightened below
	}
	// Upper bound at prefix 0: Base + sum of the topL largest initial
	// coverages.
	res.tightenUpper(opt.Base + q.topSum(topL))

	secS := x.secSelect.Enter()
	rSel := x.ring(0)
	tSel := rSel.Now()
	var cum int64
	nextBoundAt := 1
	for round := int32(1); int(round) <= k && q.size > 0; round++ {
		// Refresh the top until it is fresh (computed against the current
		// covered state) or zero — no stale entry can beat zero since
		// gains are non-negative. A refresh that keeps the gain leaves the
		// entry on top, fresh, so it is taken.
		for q.top > 0 {
			key := q.peek()
			if q.iter[key] == round-1 {
				break
			}
			v := key
			if order != nil {
				v = order[key]
			}
			g := int(x.marginal(v))
			if g == q.top {
				break
			}
			q.lower(g, round-1)
		}
		v := q.take()
		if order != nil {
			v = order[v]
		}
		cum += x.commitSeed(v)
		res.Seeds = append(res.Seeds, v)
		res.Coverage = append(res.Coverage, opt.Base+cum)

		if int(round) == nextBoundAt || int(round) == k {
			// The queue holds exactly the unselected candidates, and each
			// stored gain upper-bounds its node's current marginal
			// (submodularity), so their topL sum dominates the true maxMC
			// sum at this prefix.
			res.tightenUpper(opt.Base + cum + q.topSum(topL))
			nextBoundAt *= 2
		}
	}
	rSel.Record(timeline.PhaseSelect, tSel, rSel.Now())
	secS.Exit()
	return res
}
