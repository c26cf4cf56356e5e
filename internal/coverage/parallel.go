// Shared parallel helpers of the coverage backends.
//
// Every parallel pass is byte-identical to its serial counterpart — the
// repo's worker-independence invariant (TestPipelineEquivalence) demands
// it — because every goroutine writes only into ranges that are disjoint
// by construction: the exact engine's shard rebuilds and per-round
// reduces partition the shards across lanes, and the sketch backend's
// initial-gain pass partitions the node space into equal ranges, each
// gain a pure per-node value. Determinism therefore never depends on
// goroutine scheduling: the worker count only decides how the work is
// partitioned, never what is written where.
package coverage

import "sync"

// parallelBuildMinDelta is the smallest delta (in node ids, summed over
// the dirty shards) worth fanning out a rebuild for; below it the
// goroutine handoff dominates. A var, not a const, so the equivalence
// tests can force the parallel path on tiny inputs.
var parallelBuildMinDelta = 1 << 12

// parallelGainsMinNodes is the smallest node count worth fanning out
// the sketch backend's SelectSeeds initial-gain pass for.
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
