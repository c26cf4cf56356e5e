package im

import (
	"math"

	"subsim/internal/bounds"
	"subsim/internal/coverage"
	"subsim/internal/obs"
	"subsim/internal/rrset"
)

// SSA is the Stop-and-Stare algorithm of Nguyen et al. (2016) in the
// corrected form of Huang et al. (2017) ("SSA-Fix"): an optimistic
// doubling scheme that, after each greedy selection, *verifies* the seed
// set by estimating its influence on an independent RR stream with the
// stopping-rule estimator of Dagum et al., and accepts once the verified
// estimate is close enough to the coverage-based one.
//
// Parameterisation follows the released SSA code: ε is split evenly into
// ε₁ (selection-vs-verification gap), ε₂ (verification precision) and ε₃
// (coverage concentration), with the per-iteration failure budget spread
// uniformly so the run-level failure probability stays below δ. A budget
// θ_max (the same pessimistic bound OPIM-C uses) caps the doubling so the
// final iteration is unconditionally safe.
func SSA(gen rrset.Generator, opt Options) (*Result, error) {
	g := gen.Graph()
	n := g.N()
	if err := opt.Normalize(n); err != nil {
		return nil, err
	}
	// The ε split follows the released SSA code: a small selection gap,
	// half the budget on verification precision, the rest on coverage
	// concentration.
	eps1 := opt.Eps / 6
	eps2 := opt.Eps / 2
	eps3 := opt.Eps / 3

	thetaMax := bounds.ThetaMaxOPIMC(n, opt.K, opt.Eps, opt.Delta)
	// Λ: initial sample size from the SSA paper (the ln C(n,k) term
	// belongs only in the worst-case cap θ_max, not in the optimistic
	// starting size).
	lambda, err := setCount("lambda", (2+2*eps3/3)*math.Log(3/opt.Delta)/(eps3*eps3))
	if err != nil {
		return nil, err
	}
	if lambda < 1 {
		lambda = 1
	}
	tMax := doublingRounds(lambda, thetaMax)
	deltaIter := opt.Delta / (3 * float64(tMax))
	// Υ: stopping-rule target count for the verification estimator.
	upsilon, err := setCount("upsilon", 1+(1+eps2)*(2+2*eps2/3)*math.Log(2/deltaIter)/(eps2*eps2))
	if err != nil {
		return nil, err
	}

	tr := opt.Tracer
	run := StartRun("ssa", gen, opt)
	b := NewInstrumentedBatcher(gen, opt.Seed, opt.Workers, tr.Metrics())
	var outDeg []int32
	if opt.Revised {
		outDeg = OutDegrees(gen)
	}
	idx := NewEstimator(n, outDeg, opt, tr.Metrics())

	res := &Result{ThetaWorstCase: thetaMax}
	run.Theta(thetaMax)
	theta := lambda
	for t := 1; ; t++ {
		res.Rounds = t
		rs := run.Span().Child(obs.Round(t))
		if add := theta - int64(idx.NumSets()); add > 0 {
			sp := rs.Child("sampling")
			if _, err := b.Fill(idx, int(add), nil); err != nil {
				return nil, err
			}
			sp.SetInt("theta", add).End()
		}
		ss := rs.Child("selection")
		sel := idx.SelectSeeds(coverage.GreedyOptions{K: opt.K, Revised: opt.Revised})
		ss.End()
		res.Seeds = sel.Seeds
		covEst := float64(n) * float64(sel.TotalCoverage(0)) / float64(idx.NumSets())
		res.Influence = covEst

		// Stare: verify on an independent stream until Υ covers or the
		// budget (twice the selection collection) is exhausted. The cap
		// round stops unverified and keeps the last verified lower bound.
		capped := t >= tMax
		crossed := false
		var est float64
		if !capped {
			vs := rs.Child("verify")
			verified, used := b.verify(res.Seeds, upsilon, 2*theta)
			vs.SetInt("covered", verified).SetInt("used", used).End()
			if used > 0 {
				est = float64(verified) * float64(n) / float64(used)
				res.LowerBound = bounds.LowerBound(verified, used, n, deltaIter)
				crossed = verified >= upsilon && est >= covEst/(1+eps1)
			}
		}
		run.Round(rs, obs.RoundRecord{Round: t, Theta: int64(idx.NumSets()), Lower: res.LowerBound})
		if crossed {
			run.Crossed(t, est, covEst/(1+eps1))
		}
		rs.End()
		if capped || crossed {
			break
		}
		theta *= 2
	}
	res.RRStats = b.Stats()
	res.Elapsed, res.Report = run.Done(res.Rounds, res.RRStats.Sets, res.Influence)
	return res, nil
}

// verify draws RR sets one at a time until `target` of them are covered
// by seeds or `cap` sets have been drawn, returning the covered count and
// the number drawn. It implements the stopping-rule estimator on the
// verification stream, scanning the sets in place in the worker arenas.
func (b *Batcher) verify(seeds []int32, target, cap int64) (covered, used int64) {
	g := b.gens[0].Graph()
	inSeed := make([]bool, g.N())
	for _, s := range seeds {
		inSeed[s] = true
	}
	// Draw in modest batches to amortise parallel dispatch while not
	// overshooting the stopping rule by much.
	batch := int64(256)
	for covered < target && used < cap {
		want := batch
		if used+want > cap {
			want = cap - used
		}
		b.Visit(int(want), nil, func(set []int32) bool {
			used++
			for _, v := range set {
				if inSeed[v] {
					covered++
					break
				}
			}
			return covered < target
		})
		batch *= 2
	}
	return covered, used
}
