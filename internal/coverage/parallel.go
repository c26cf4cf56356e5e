// Parallel coverage kernels: the node-range-partitioned delta CSR
// rebuild and the partitioned initial-entry fill of SelectSeeds.
//
// Both paths are byte-identical to their serial counterparts — the
// repo's worker-independence invariant (TestPipelineEquivalence) demands
// it — because every goroutine writes only into ranges that are disjoint
// by construction:
//
//   - the counting pass shards the *delta data* by position, each worker
//     bumping its own per-worker count array;
//   - the merged prefix sum and the head fill partition the *node space*
//     into equal ranges (each newHeads[v] written once);
//   - the placement pass partitions the node space into ranges balanced
//     by postings (binary search over the freshly prefix-summed heads),
//     each worker block-copying the old posting lists of its nodes and
//     scanning the delta in ascending set-id order, so every posting
//     list comes out ascending exactly as the serial scatter leaves it;
//   - the initial-entry fill partitions the node space into equal ranges
//     with per-range entry slots derived from a prefix sum over the
//     non-excluded counts, so the CELF entry order (ascending node id)
//     is preserved.
//
// Determinism therefore never depends on goroutine scheduling: the
// worker count only decides how the work is partitioned, never what is
// written where.
package coverage

import (
	"sync"

	"subsim/internal/obs/timeline"
)

// parallelBuildMinDelta is the smallest delta (in node ids) worth
// fanning out a rebuild for; below it the goroutine handoff dominates.
// A var, not a const, so the equivalence tests can force the parallel
// path on tiny inputs.
var parallelBuildMinDelta = 1 << 12

// parallelGainsMinNodes is the smallest node count worth fanning out
// the SelectSeeds initial-entry fill for.
var parallelGainsMinNodes = 1 << 12

// runParallel executes fn(w) for w in [0, workers): workers-1 goroutines
// plus the calling goroutine, joining before it returns. fn must confine
// its writes to worker-w-owned ranges.
//
//subsim:parallel
func runParallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}

// runTimed is runParallel with per-worker timeline records: when a
// timeline is attached, worker w's execution of fn lands as one interval
// on ring w. The wrapper closure is allocated only on the instrumented
// path — with no timeline it delegates straight to runParallel, keeping
// the uninstrumented pipeline allocation-identical to before. The
// single-writer discipline holds because runParallel joins before
// returning: the goroutine acting as worker w is ring w's only writer
// for the duration of the pass.
func (x *Index) runTimed(phase timeline.Phase, workers int, fn func(w int)) {
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

// growCntScratch sizes the per-worker delta-count arrays (the sharded
// counting pass); all arrays are kept zeroed between builds.
func (x *Index) growCntScratch(workers int) {
	for len(x.cntW) < workers {
		x.cntW = append(x.cntW, nil)
	}
	for w := 0; w < workers; w++ {
		if len(x.cntW[w]) < x.n {
			x.cntW[w] = make([]int32, x.n)
		}
	}
}

// growPartialScratch sizes the per-range partial-sum / base-offset and
// range-boundary arrays.
func (x *Index) growPartialScratch(workers int) {
	if cap(x.partial) < workers {
		x.partial = make([]int64, workers)
	}
	x.partial = x.partial[:workers]
	if cap(x.rangeEnd) < workers+1 {
		x.rangeEnd = make([]int, workers+1)
	}
	x.rangeEnd = x.rangeEnd[:workers+1]
}

// buildParallel is the multi-worker delta rebuild. The phases mirror
// buildSerial exactly — count, prefix-sum, place — with each phase
// partitioned as described in the package comment.
func (x *Index) buildParallel(newHeads []int64, data []int32, ends []int64, deltaFrom int64, total int) {
	workers := x.workers
	x.growCntScratch(workers)
	x.growPartialScratch(workers)
	delta := data[deltaFrom:]

	// Phase 1 — counting, sharded by delta position: worker w bumps its
	// own count array over the w-th contiguous chunk of the delta.
	x.runTimed(timeline.PhaseIndexBuild, workers, func(w int) {
		lo := len(delta) * w / workers
		hi := len(delta) * (w + 1) / workers
		countShard(x.cntW[w], delta[lo:hi])
	})

	// Phase 2 — merge the shard counts into the prefix sum. Equal node
	// ranges: worker w folds old lengths + shard counts into per-node
	// totals (parked in cursors) and a per-range partial sum, zeroing
	// the shard counts as it reads them.
	x.runTimed(timeline.PhaseIndexBuild, workers, func(w int) {
		lo := x.n * w / workers
		hi := x.n * (w + 1) / workers
		x.partial[w] = x.mergeCountsRange(lo, hi)
	})
	var acc int64
	for w := 0; w < workers; w++ {
		acc, x.partial[w] = acc+x.partial[w], acc // partial becomes the range's head base
	}
	totalPost := acc

	// Phase 2b — fill newHeads per range from the per-node totals and
	// park each node's scatter cursor (head + old length) in cursors.
	x.runTimed(timeline.PhaseIndexBuild, workers, func(w int) {
		lo := x.n * w / workers
		hi := x.n * (w + 1) / workers
		fillHeadsRange(newHeads, x.heads, x.cursors, lo, hi, x.partial[w])
	})
	newHeads[x.n] = totalPost

	newPost := x.growPostScratch(totalPost)

	// Phase 3 — placement, partitioned by node ranges balanced on the
	// posting mass each range will write (old copy + delta scatter).
	x.rangeEnd[0] = 0
	x.rangeEnd[workers] = x.n
	for w := 1; w < workers; w++ {
		x.rangeEnd[w] = searchHeads(newHeads[:x.n+1], totalPost*int64(w)/int64(workers))
	}
	x.runTimed(timeline.PhaseIndexBuild, workers, func(w int) {
		x.placeRange(newPost, newHeads, x.rangeEnd[w], x.rangeEnd[w+1], data, ends, deltaFrom, total)
	})
	x.commitBuild(newHeads, newPost)
}

// countShard bumps cnt[v] for every node id in the delta shard.
//
//subsim:hotpath
func countShard(cnt []int32, shard []int32) {
	for _, v := range shard {
		cnt[v]++
	}
}

// mergeCountsRange folds the per-worker shard counts and the old posting
// lengths of nodes [lo, hi) into per-node totals (stored in x.cursors)
// and returns the range total. Shard counts are zeroed as they are
// read, restoring the all-zero invariant for the next build.
//
//subsim:hotpath
func (x *Index) mergeCountsRange(lo, hi int) int64 {
	var sum int64
	for v := lo; v < hi; v++ {
		t := x.heads[v+1] - x.heads[v]
		for _, cnt := range x.cntW {
			t += int64(cnt[v])
			cnt[v] = 0
		}
		x.cursors[v] = t
		sum += t
	}
	return sum
}

// fillHeadsRange turns the per-node totals parked in cursors into the
// new head offsets of nodes [lo, hi), starting at base (the prefix sum
// of all earlier ranges), and re-parks each node's scatter cursor —
// newHeads[v] plus the old posting length — for the placement pass.
//
//subsim:hotpath
func fillHeadsRange(newHeads, oldHeads, cursors []int64, lo, hi int, base int64) {
	acc := base
	for v := lo; v < hi; v++ {
		t := cursors[v]
		newHeads[v] = acc
		cursors[v] = acc + (oldHeads[v+1] - oldHeads[v])
		acc += t
	}
}

// searchHeads returns the smallest v with heads[v] >= target (heads is
// ascending), via branch-free-ish binary search; used to cut the node
// space into placement ranges of roughly equal posting mass.
func searchHeads(heads []int64, target int64) int {
	lo, hi := 0, len(heads)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if heads[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// placeRange builds the posting lists of nodes [lo, hi): block-copy each
// node's old postings to its new head, then scan the whole delta in
// ascending set-id order scattering the ids of nodes in the range. Every
// write lands in [newHeads[lo], newHeads[hi]), disjoint from all other
// ranges; scanning set ids in order keeps every posting list ascending,
// exactly as the serial scatter leaves it. Cursors are re-zeroed on the
// way out.
//
//subsim:hotpath
func (x *Index) placeRange(newPost []int32, newHeads []int64, lo, hi int, data []int32, ends []int64, deltaFrom int64, total int) {
	if lo >= hi {
		return
	}
	for v := lo; v < hi; v++ {
		s, e := x.heads[v], x.heads[v+1]
		if e > s {
			copy(newPost[newHeads[v]:], x.postings[s:e])
		}
	}
	cur := x.cursors
	pos := deltaFrom
	lo32, hi32 := int32(lo), int32(hi)
	for id := x.indexed; id < total; id++ {
		end := ends[id]
		for ; pos < end; pos++ {
			v := data[pos]
			if v >= lo32 && v < hi32 {
				newPost[cur[v]] = int32(id)
				cur[v]++
			}
		}
	}
	for v := lo; v < hi; v++ {
		cur[v] = 0
	}
}

// initialEntries is the first CELF round: one entry per non-excluded
// node in ascending node order, its gain the node's posting-list length
// read straight off the CSR heads. With SetWorkers(w>1) on a large
// enough node space the fill is partitioned into equal node ranges,
// each writing its prefix-summed slots, so the array matches the serial
// fill exactly. entries must have capacity >= n.
func (x *Index) initialEntries(entries []celfEntry, exclude []bool) []celfEntry {
	workers := 1
	if x.workers > 1 && x.n >= parallelGainsMinNodes {
		workers = x.workers
	}
	x.growPartialScratch(workers)
	entries = entries[:entrySlots(x.partial, exclude, x.n)]
	if workers == 1 {
		r := x.ring(0)
		t0 := r.Now()
		fillEntriesRange(entries, x.heads, exclude, 0, x.n, 0)
		r.Record(timeline.PhaseGains, t0, r.Now())
		return entries
	}
	x.runTimed(timeline.PhaseGains, workers, func(w int) {
		fillEntriesRange(entries, x.heads, exclude, x.n*w/workers, x.n*(w+1)/workers, int(x.partial[w]))
	})
	return entries
}

// entrySlots splits the node space [0, n) into len(base) equal ranges,
// sets base[w] to the first entry slot of range w — the number of
// non-excluded nodes before it — and returns the total entry count.
func entrySlots(base []int64, exclude []bool, n int) int64 {
	workers := len(base)
	var total int64
	for w := 0; w < workers; w++ {
		base[w] = total
		lo, hi := n*w/workers, n*(w+1)/workers
		if exclude == nil {
			total += int64(hi - lo)
			continue
		}
		for _, ex := range exclude[lo:hi] {
			if !ex {
				total++
			}
		}
	}
	return total
}

// fillEntriesRange writes the CELF entries of the non-excluded nodes in
// [lo, hi) into consecutive slots from slot, each gain the node's
// posting-list length under heads.
//
//subsim:hotpath
func fillEntriesRange(entries []celfEntry, heads []int64, exclude []bool, lo, hi, slot int) {
	for v := lo; v < hi; v++ {
		if exclude != nil && exclude[v] {
			continue
		}
		entries[slot] = celfEntry{gain: heads[v+1] - heads[v], node: int32(v)}
		slot++
	}
}
