package subsim_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"subsim"
)

// allAlgorithms lists every Algorithm Maximize accepts.
var allAlgorithms = []subsim.Algorithm{
	subsim.AlgIMM, subsim.AlgSSA, subsim.AlgOPIMC, subsim.AlgSUBSIM,
	subsim.AlgHIST, subsim.AlgHISTSubsim, subsim.AlgTIMPlus,
}

// checkOutcome fails t unless a Maximize call ended in an error or in a
// valid answer: k distinct in-range seeds, a finite Influence in [0, n]
// and non-negative reported θs.
func checkOutcome(t *testing.T, g *subsim.Graph, k int, res *subsim.Result, err error) {
	t.Helper()
	if err != nil {
		return
	}
	n := g.N()
	if len(res.Seeds) != k {
		t.Fatalf("%d seeds, want k=%d", len(res.Seeds), k)
	}
	seen := make(map[int32]bool, k)
	for _, v := range res.Seeds {
		if v < 0 || int(v) >= n || seen[v] {
			t.Fatalf("seeds %v: %d repeated or outside [0,%d)", res.Seeds, v, n)
		}
		seen[v] = true
	}
	if math.IsNaN(res.Influence) || res.Influence < 0 || res.Influence > float64(n) {
		t.Fatalf("influence %v outside [0,%d]", res.Influence, n)
	}
	if res.ThetaWorstCase < 0 {
		t.Fatalf("negative sample budget %d", res.ThetaWorstCase)
	}
}

// maximizeWithin runs Maximize and fails t when it has not returned
// after d, so a hang is reported as one instead of as a test timeout.
func maximizeWithin(t *testing.T, d time.Duration, g *subsim.Graph, alg subsim.Algorithm, opt subsim.Options) (*subsim.Result, error) {
	t.Helper()
	type outcome struct {
		res *subsim.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := subsim.Maximize(g, alg, opt)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("%v with %+v did not return within %v", alg, opt, d)
		return nil, nil
	}
}

// fuzzParam maps a fuzzed ε or δ into the range where a run takes
// milliseconds when it is valid, and passes it through unchanged when
// it is not (NaN, ±Inf, ≤ 0 or ≥ 1), so the invalid values reach
// Options.Normalize as a caller would send them.
func fuzzParam(x, lo float64) float64 {
	if x > 0 && x < 1 {
		return lo + (1-lo)*x
	}
	return x
}

// FuzzMaximize runs every algorithm on tiny random graphs (n ≤ 8,
// edge probabilities 0, 1 or random) with any k in [0, n+1], any worker
// count in [0, 4], and ε and δ either valid or degenerate. Each input
// must end in an error or a valid answer (checkOutcome), never in a
// panic, a hang or a NaN, and an invalid one (n < 2, k outside [1, n],
// or ε, δ outside their ranges, NaN included) in an error.
func FuzzMaximize(f *testing.F) {
	// The defects these seeds pin: NaN ε or δ passed Options.Normalize
	// (IMM and SSA reported Influence = n, OPIM-C, SUBSIM and TIM+
	// reported NaN, HIST did not return), and n = 1 either named a δ the
	// caller never set or, with δ set, made TIM+ report NaN.
	star := []byte{0, 1, 1, 0, 2, 1, 0, 3, 2, 3, 4, 200}
	for alg := range allAlgorithms {
		f.Add(uint8(5), star, uint8(2), uint8(alg), uint8(1), math.NaN(), 0.0)
		f.Add(uint8(5), star, uint8(2), uint8(alg), uint8(2), 0.3, math.NaN())
		f.Add(uint8(1), []byte{}, uint8(1), uint8(alg), uint8(1), 0.3, 0.0)
		f.Add(uint8(1), []byte{}, uint8(1), uint8(alg), uint8(1), 0.3, 0.3)
	}
	f.Add(uint8(8), star, uint8(9), uint8(0), uint8(0), math.Inf(1), math.Inf(-1))
	f.Add(uint8(0), []byte{}, uint8(0), uint8(6), uint8(4), 1.0, -1.0)
	f.Fuzz(func(t *testing.T, n uint8, edges []byte, k, alg, workers uint8, eps, delta float64) {
		nodes := int(n % 9)
		b := subsim.NewBuilder(nodes)
		if nodes > 0 {
			for i := 0; i+2 < len(edges) && i < 3*32; i += 3 {
				var p float64
				switch w := edges[i+2]; w % 3 {
				case 1:
					p = 1
				case 2:
					p = float64(w) / 256
				}
				// Self-loops are rejected; the graph simply lacks them.
				_ = b.AddEdge(int32(int(edges[i])%nodes), int32(int(edges[i+1])%nodes), p)
			}
		}
		g := b.Build()
		opt := subsim.Options{
			K:       int(k) % (nodes + 2),
			Eps:     fuzzParam(eps, 0.1),
			Delta:   fuzzParam(delta, 0.01),
			Seed:    uint64(len(edges)),
			Workers: int(workers % 5),
		}
		res, err := maximizeWithin(t, 10*time.Second, g, allAlgorithms[int(alg)%len(allAlgorithms)], opt)
		valid := nodes >= 2 && opt.K >= 1 && opt.K <= nodes &&
			opt.Eps > 0 && opt.Eps < 1 && opt.Delta >= 0 && opt.Delta < 1
		if !valid && err == nil {
			t.Fatalf("n=%d, %+v: no error", nodes, opt)
		}
		checkOutcome(t, g, opt.K, res, err)
	})
}

// TestMaximizeThetaPastLimits pins the runs whose sample sizes leave
// what an estimator can hold: at ε = 1e-300 every algorithm must end,
// well within a second, in an error or a valid answer. IMM panicked
// growing an arena to 10¹⁸ sets, TIM+ reported θ = -2⁶³ after a float
// overflowed its int64 conversion, SSA did not return, and HIST, whose
// certified ratio can converge below 1-1/e, doubled toward the 10¹⁸-set
// cap. At ε = 1e-12, which Options.Normalize accepts, the algorithms that
// compute their sample sizes up front must refuse them instead of
// drawing.
func TestMaximizeThetaPastLimits(t *testing.T) {
	g, err := subsim.GenPreferentialAttachment(50, 1, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	cases := []struct {
		eps  float64
		algs []subsim.Algorithm
	}{
		{1e-300, allAlgorithms},
		{1e-12, []subsim.Algorithm{subsim.AlgIMM, subsim.AlgSSA, subsim.AlgTIMPlus}},
	}
	for _, c := range cases {
		for _, alg := range c.algs {
			t.Run(fmt.Sprintf("%s/eps=%g", alg, c.eps), func(t *testing.T) {
				opt := subsim.Options{K: 3, Eps: c.eps, Seed: 1, Workers: 1}
				res, err := maximizeWithin(t, time.Second, g, alg, opt)
				if c.eps > 1e-300 && err == nil {
					t.Fatalf("drew θ = %d RR sets, want an error", res.RRStats.Sets)
				}
				checkOutcome(t, g, opt.K, res, err)
			})
		}
	}
}
