// Shared parallel helpers of the coverage backends.
//
// Every parallel pass is byte-identical to its serial counterpart — the
// repo's worker-independence invariant (TestPipelineEquivalence) demands
// it — because every goroutine writes only into ranges that are disjoint
// by construction: shard rebuilds and per-round reduces partition the
// shards across lanes, and the first CELF round partitions the node
// space into equal ranges with per-range entry slots derived from a
// prefix sum over the non-excluded counts (entrySlots), so the CELF
// entry order (ascending node id) is preserved. Determinism therefore
// never depends on goroutine scheduling: the worker count only decides
// how the work is partitioned, never what is written where.
package coverage

import "sync"

// parallelBuildMinDelta is the smallest delta (in node ids, summed over
// the dirty shards) worth fanning out a rebuild for; below it the
// goroutine handoff dominates. A var, not a const, so the equivalence
// tests can force the parallel path on tiny inputs.
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
