package im

import (
	"subsim/internal/bounds"
	"subsim/internal/coverage"
	"subsim/internal/obs"
	"subsim/internal/rrset"
)

// OPIMC is the online-processing IM algorithm of Tang et al. (2018),
// the strongest baseline in the paper and the chassis SUBSIM plugs into.
//
// It maintains two independent RR collections of equal size: R₁ selects a
// greedy seed set and yields the upper bound I⁺(S_k°) via Equation (2)
// with the maxMC coverage bound, R₂ yields the lower bound I⁻(S_k*) via
// Equation (1). The run stops as soon as I⁻/I⁺ exceeds 1-1/e-ε; otherwise
// both collections double, up to the budget θ_max that guarantees success
// in the final iteration.
func OPIMC(gen rrset.Generator, opt Options) (*Result, error) {
	g := gen.Graph()
	n := g.N()
	if err := opt.Normalize(n); err != nil {
		return nil, err
	}

	thetaMax := bounds.ThetaMaxOPIMC(n, opt.K, opt.Eps, opt.Delta)
	theta0 := bounds.Theta0(opt.Delta)
	iMax := doublingRounds(theta0, thetaMax)
	deltaIter := opt.Delta / (3 * float64(iMax))
	target := bounds.GreedyFactor(opt.Eps)

	tr := opt.Tracer
	run := StartRun("opimc", gen, opt)
	b := NewInstrumentedBatcher(gen, opt.Seed, opt.Workers, tr.Metrics())
	var outDeg []int32
	if opt.Revised {
		outDeg = OutDegrees(gen)
	}
	idx1 := NewEstimator(n, outDeg, opt, tr.Metrics())
	idx2 := NewEstimator(n, outDeg, opt, tr.Metrics())

	res := &Result{ThetaWorstCase: thetaMax}
	run.Theta(thetaMax)
	theta := theta0
	sp := run.Span().Child("sampling")
	if _, _, err := b.FillPair(idx1, idx2, int(theta), nil); err != nil {
		return nil, err
	}
	sp.SetInt("theta", theta).End()

	for i := 1; ; i++ {
		res.Rounds = i
		rs := run.Span().Child(obs.Round(i))
		ss := rs.Child("selection")
		sel := idx1.SelectSeeds(coverage.GreedyOptions{K: opt.K, Revised: opt.Revised})
		ss.End()
		res.Seeds = sel.Seeds
		bc := rs.Child("bound-check")
		res.UpperBound = bounds.UpperBound(sel.CoverageUpper, int64(idx1.NumSets()), n, deltaIter)
		cov2 := idx2.CoverageOf(sel.Seeds)
		res.LowerBound = bounds.LowerBound(cov2, int64(idx2.NumSets()), n, deltaIter)
		res.Influence = float64(cov2) * float64(n) / float64(idx2.NumSets())
		if res.UpperBound > 0 {
			res.Approx = res.LowerBound / res.UpperBound
		}
		bc.End()
		run.Round(rs, obs.RoundRecord{Round: i, Theta: int64(idx1.NumSets()),
			Lower: res.LowerBound, Upper: res.UpperBound, Approx: res.Approx})
		if res.Approx > target || i >= iMax {
			if res.Approx > target {
				run.Crossed(i, res.Approx, target)
			}
			rs.End()
			break
		}
		sp := rs.Child("sampling")
		if _, _, err := b.FillPair(idx1, idx2, int(theta), nil); err != nil {
			return nil, err
		}
		sp.SetInt("theta", theta).End()
		rs.End()
		theta *= 2
	}
	res.RRStats = b.Stats()
	res.Elapsed, res.Report = run.Done(res.Rounds, res.RRStats.Sets, res.Influence)
	return res, nil
}
