// Package sampling implements the independent subset-sampling kernels at
// the core of SUBSIM (paper Section 3). Given h elements with inclusion
// probabilities p_0..p_{h-1}, a subset sampler emits each index i
// independently with probability p_i. The kernels are:
//
//   - Naive: one Bernoulli coin per element, Θ(h) — the vanilla RR set
//     generator's inner loop (Algorithm 2, line 6).
//   - EqualSkip: geometric skip sampling for equal probabilities,
//     O(1+hp) expected (Algorithm 3) — the WC / Uniform IC fast path.
//   - SortedSkip: the index-free general-IC sampler over probabilities
//     sorted in descending order, O(1+μ+log h) expected (Section 3.3).
//     It is the one general-IC kernel; the paper recommends it over the
//     preprocessed (Lemma 5) sampler on sparse graphs.
//
// All kernels report sampled indices through a yield callback so the hot
// paths allocate nothing.
package sampling

import (
	"math"

	"subsim/internal/rng"
)

// Naive emits each index i in [0, len(probs)) independently with
// probability probs[i], flipping one coin per element. It is the baseline
// the SUBSIM kernels are measured against.
func Naive(r *rng.Source, probs []float64, yield func(int) bool) {
	for i, p := range probs {
		if r.Bernoulli(p) && !yield(i) {
			return
		}
	}
}

// EqualSkip emits each index in [0, h) independently with the shared
// probability p, using geometric skip sampling: successive gaps between
// sampled indices are Geometric(p), so the expected cost is O(1 + h·p)
// instead of Θ(h). logOneMinusP must be math.Log1p(-p) (or math.Inf(-1)
// for p == 1); callers that sample the same node repeatedly precompute
// it once.
// Yield follows the range-over-func convention: returning false stops the
// draw early (used by sentinel-terminated RR set generation).
func EqualSkip(r *rng.Source, h int, p, logOneMinusP float64, yield func(int) bool) {
	if h <= 0 || p <= 0 {
		return
	}
	pos := int64(-1)
	for {
		skip := r.GeometricFromLog(logOneMinusP)
		if skip >= int64(h)-pos {
			return
		}
		pos += skip
		if !yield(int(pos)) {
			return
		}
	}
}

// SortedSkip emits each index i independently with probability probs[i],
// where probs must be sorted in descending order. It is the paper's
// index-free general-IC sampler: positions are grouped into buckets
// [2^k, 2^{k+1}) (1-indexed); within bucket k the sampler skips with
// Geometric(probs[2^k-1]) — the largest probability in the bucket — and
// accepts a landed position pos with probability probs[pos]/probs[2^k-1].
// Expected cost is O(1 + μ + log h) with μ = Σ probs[i].
// Yield follows the range-over-func convention: returning false stops the
// draw early.
func SortedSkip(r *rng.Source, probs []float64, yield func(int) bool) {
	h := len(probs)
	// 1-indexed positions: bucket k spans [2^k, min(2^{k+1}, h+1)).
	for start := 1; start <= h; start *= 2 {
		end := start * 2
		if end > h+1 {
			end = h + 1
		}
		head := probs[start-1]
		if head <= 0 {
			// Descending order: every remaining probability is zero.
			return
		}
		if head >= 1 {
			// Geometric skipping degenerates to scanning; accept each
			// position with its own probability.
			for pos := start; pos < end; pos++ {
				if r.Bernoulli(probs[pos-1]) && !yield(pos-1) {
					return
				}
			}
			continue
		}
		logHead := math.Log1p(-head)
		pos := int64(start - 1)
		for {
			skip := r.GeometricFromLog(logHead)
			if skip >= int64(end)-pos {
				break
			}
			pos += skip
			// Thin the Geometric(head) stream down to the true
			// probability of the landed position.
			if p := probs[pos-1]; p >= head || r.Float64()*head < p {
				if !yield(int(pos) - 1) {
					return
				}
			}
		}
	}
}

// IsSortedDesc reports whether probs is sorted in descending order, the
// precondition of SortedSkip.
func IsSortedDesc(probs []float64) bool {
	for i := 1; i < len(probs); i++ {
		if probs[i] > probs[i-1] {
			return false
		}
	}
	return true
}
