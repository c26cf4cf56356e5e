// Package oracle implements the influence oracle of Borgs et al. (2014):
// a one-time collection of random RR sets that afterwards answers
// expected-influence queries for arbitrary seed sets in time proportional
// to the seeds' inverted lists — no further sampling. Where the IM
// algorithms in internal/im grow their collections adaptively to certify
// one seed set, the oracle fixes θ up front to serve many queries, each
// with a confidence interval from the paper's Equations (1) and (2).
package oracle

import (
	"fmt"
	"math"
	"runtime"

	"subsim/internal/bounds"
	"subsim/internal/coverage"
	"subsim/internal/im"
	"subsim/internal/rrset"
)

// Oracle answers influence queries over a fixed RR collection. Build one
// with New or NewWithPrecision. The zero value is not usable.
//
// The collection lives in the exact coverage engine (coverage.Sharded:
// per-worker RR arenas with CSR inverted indexes), so construction
// performs no per-set heap allocation and queries walk contiguous
// posting lists.
//
// Oracle queries mutate a small amount of scratch state and are NOT safe
// for concurrent use; guard with a mutex or build one oracle per
// goroutine (sharing the generator's graph).
type Oracle struct {
	n     int
	theta int64
	idx   *coverage.Sharded
	stats rrset.Stats

	seedBuf []int32 // reusable, bounds-filtered copy of query seeds
}

// New builds an oracle from theta random RR sets drawn through gen,
// using `workers` parallel generators (<= 0 means GOMAXPROCS). The
// collection, and with it every answer, is the same for any worker
// count.
func New(gen rrset.Generator, theta int64, seed uint64, workers int) (*Oracle, error) {
	if theta < 1 {
		return nil, fmt.Errorf("oracle: theta must be positive, got %d", theta)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := gen.Graph()
	o := &Oracle{
		n:     g.N(),
		theta: theta,
		idx:   coverage.NewSharded(g.N(), nil, workers),
	}
	o.idx.SetWorkers(workers)
	b := im.NewBatcher(gen, seed, workers)
	if _, err := b.Fill(o.idx, int(theta), nil); err != nil {
		return nil, err
	}
	o.stats = b.Stats()
	return o, nil
}

// NewWithPrecision sizes the collection so that any fixed seed set with
// expected influence at least iMin is estimated within relative error
// eps with probability 1-delta (per query), following the Monte-Carlo
// bound of Dagum et al.: θ ≥ 3n·ln(2/δ)/(ε²·iMin).
func NewWithPrecision(gen rrset.Generator, eps, delta, iMin float64, seed uint64, workers int) (*Oracle, error) {
	if !(eps > 0 && eps < 1) {
		return nil, fmt.Errorf("oracle: eps %v outside (0,1)", eps)
	}
	if !(delta > 0 && delta < 1) {
		return nil, fmt.Errorf("oracle: delta %v outside (0,1)", delta)
	}
	n := float64(gen.Graph().N())
	if iMin < 1 {
		iMin = 1
	}
	theta := math.Ceil(3 * n * math.Log(2/delta) / (eps * eps * iMin))
	if !(theta <= im.MaxSets) {
		return nil, fmt.Errorf("oracle: theta=%v RR sets, more than one collection holds (%d)", theta, im.MaxSets)
	}
	return New(gen, int64(theta), seed, workers)
}

// Theta returns the number of RR sets backing the oracle.
func (o *Oracle) Theta() int64 { return o.theta }

// Stats returns the generation cost of the backing collection.
func (o *Oracle) Stats() rrset.Stats { return o.stats }

// Coverage returns Λ(S), the number of backing RR sets the seed set
// intersects. Out-of-range node ids are ignored.
func (o *Oracle) Coverage(seeds []int32) int64 {
	o.seedBuf = o.seedBuf[:0]
	for _, v := range seeds {
		if v < 0 || int(v) >= o.n {
			continue
		}
		o.seedBuf = append(o.seedBuf, v)
	}
	return o.idx.CoverageOf(o.seedBuf)
}

// Estimate returns the unbiased point estimate n·Λ(S)/θ of the expected
// influence of the seed set.
func (o *Oracle) Estimate(seeds []int32) float64 {
	return float64(o.Coverage(seeds)) * float64(o.n) / float64(o.theta)
}

// Interval returns a (1-delta)-confidence interval for the expected
// influence of the (fixed, query-independent) seed set, splitting delta
// evenly between the lower and upper tails.
func (o *Oracle) Interval(seeds []int32, delta float64) (lo, hi float64) {
	cov := o.Coverage(seeds)
	lo = bounds.LowerBound(cov, o.theta, o.n, delta/2)
	hi = bounds.UpperBound(cov, o.theta, o.n, delta/2)
	return lo, hi
}
