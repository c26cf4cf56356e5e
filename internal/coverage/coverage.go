// Package coverage implements the max-coverage machinery that turns a
// collection of random RR sets into a seed set: the greedy algorithm of
// the paper's Algorithm 1 with CELF-style lazy marginal evaluation, the
// Revised Greedy out-degree tie-break of Algorithm 6, and the coverage
// upper bound Λᵘ (the maxMC prefix bound feeding Equation 2).
//
// Two backends implement the Estimator contract: the exact engine
// (*Sharded, per-shard RR arenas with CSR node→sets indexes, see
// sharded.go), which selects from a bucket queue over its integer gains
// (queue.go), and the HyperLogLog sketch backend (*HLL, see hll.go),
// which selects from a CELF heap over its float gain estimates. Both
// order candidates by gain, then out-degree under Revised, then node id,
// so they pick and bound the same way.
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
