package bounds

import (
	"math"
	"testing"
	"testing/quick"

	"subsim/internal/rng"
)

func TestLogChooseExactSmallValues(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 0},
		{5, 5, 0},
		{5, 1, math.Log(5)},
		{5, 2, math.Log(10)},
		{10, 3, math.Log(120)},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := LogChoose(c.n, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("LogChoose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if LogChoose(3, 5) != 0 || LogChoose(3, -1) != 0 {
		t.Error("out-of-range k should return 0")
	}
}

func TestLogChooseSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(1000)
		k := r.Intn(n + 1)
		return math.Abs(LogChoose(n, k)-LogChoose(n, n-k)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLogChooseMonotoneInN(t *testing.T) {
	for n := 10; n < 100; n++ {
		if LogChoose(n+1, 5) < LogChoose(n, 5) {
			t.Fatalf("LogChoose not monotone at n=%d", n)
		}
	}
}

func TestLowerUpperBracketTruth(t *testing.T) {
	// Simulate coverage counts for a known influence and verify the
	// bounds bracket the truth with overwhelming empirical frequency.
	const (
		n     = 1000
		inf   = 120.0 // true expected influence
		theta = 5000
		delta = 0.01
		runs  = 300
	)
	p := inf / n
	r := rng.New(1)
	lowFail, highFail := 0, 0
	for run := 0; run < runs; run++ {
		var cov int64
		for i := 0; i < theta; i++ {
			if r.Bernoulli(p) {
				cov++
			}
		}
		lb := LowerBound(cov, theta, n, delta)
		if lb > inf {
			lowFail++
		}
		ub := UpperBound(cov, theta, n, delta)
		if ub < inf {
			highFail++
		}
	}
	// δ=1% per run; with 300 runs expect ~3 failures; 15+ would signal a
	// broken bound.
	if lowFail > 15 {
		t.Fatalf("lower bound exceeded the truth %d/%d times", lowFail, runs)
	}
	if highFail > 15 {
		t.Fatalf("upper bound fell below the truth %d/%d times", highFail, runs)
	}
}

func TestLowerBoundBelowEstimate(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 100 + r.Intn(10000)
		theta := int64(100 + r.Intn(100000))
		cov := int64(r.Intn(int(theta)))
		delta := 0.001 + 0.5*r.Float64()
		est := float64(cov) * float64(n) / float64(theta)
		lb := LowerBound(cov, theta, n, delta)
		ub := UpperBound(cov, theta, n, delta)
		return lb <= est+1e-9 && ub >= est-1e-9 && lb >= 0 && ub <= float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsDegenerateInputs(t *testing.T) {
	if LowerBound(10, 0, 100, 0.1) != 0 {
		t.Error("LowerBound with θ=0 should be 0")
	}
	if UpperBound(10, 0, 100, 0.1) != 100 {
		t.Error("UpperBound with θ=0 should be n")
	}
	if LowerBound(0, 100, 100, 0.5) != 0 {
		t.Error("LowerBound with zero coverage should clamp to 0")
	}
	if ub := UpperBound(1<<40, 10, 100, 0.5); ub != 100 {
		t.Errorf("UpperBound should clamp to n, got %v", ub)
	}
}

func TestBoundsTightenWithTheta(t *testing.T) {
	// Fixing the empirical mean, more samples must tighten both bounds.
	n := 1000
	prevGap := math.Inf(1)
	for _, theta := range []int64{100, 1000, 10000, 100000} {
		cov := theta / 10 // empirical influence 100
		gap := UpperBound(cov, theta, n, 0.01) - LowerBound(cov, theta, n, 0.01)
		if gap >= prevGap {
			t.Fatalf("gap did not shrink at θ=%d: %v >= %v", theta, gap, prevGap)
		}
		prevGap = gap
	}
}

func TestTheta0(t *testing.T) {
	if Theta0(1.0/2.718281828459045) != 3 {
		t.Fatalf("Theta0(1/e) = %d", Theta0(1.0/math.E))
	}
	if Theta0(0.999999) < 1 {
		t.Fatal("Theta0 must be at least 1")
	}
}

func TestThetaMaxFormulas(t *testing.T) {
	n, k := 100000, 100
	s := ThetaMaxSentinel(n, k, 0.05, 0.01)
	i := ThetaMaxIMSentinel(n, k, 10, 0.05, 0.01)
	o := ThetaMaxOPIMC(n, k, 0.1, 0.01)
	for name, v := range map[string]int64{"sentinel": s, "imsentinel": i, "opimc": o} {
		if v < 1 {
			t.Errorf("%s θ_max = %d", name, v)
		}
	}
	// Halving ε must quadruple the budget (within rounding).
	s2 := ThetaMaxSentinel(n, k, 0.025, 0.01)
	ratio := float64(s2) / float64(s)
	if math.Abs(ratio-4) > 0.01 {
		t.Errorf("ε halving scaled sentinel θ_max by %v, want 4", ratio)
	}
	// A larger sentinel prefix b shrinks C(n-b, k-b) and hence the
	// phase-2 budget.
	i2 := ThetaMaxIMSentinel(n, k, 90, 0.05, 0.01)
	if i2 >= i {
		t.Errorf("larger b did not reduce phase-2 budget: %d vs %d", i2, i)
	}
}

func TestIMMConstants(t *testing.T) {
	n, k := 10000, 50
	ls := IMMLambdaStar(n, k, 0.1, 1)
	lp := IMMLambdaPrime(n, k, math.Sqrt2*0.1, 1)
	if ls <= 0 || lp <= 0 {
		t.Fatalf("λ* = %v, λ' = %v", ls, lp)
	}
	if IMMTheta(n, k, 0.1, 1, 100) != ceilTheta(ls/100) {
		t.Fatal("IMMTheta inconsistent with λ*")
	}
	// λ* grows with k through the binomial term.
	if IMMLambdaStar(n, 2*k, 0.1, 1) <= ls {
		t.Fatal("λ* not increasing in k")
	}
}

func TestApproxFactor(t *testing.T) {
	if math.Abs(ApproxFactor(100, 100, 0)-(1-math.Pow(0.99, 100))) > 1e-12 {
		t.Fatal("ApproxFactor(k,k) wrong")
	}
	if got := ApproxFactor(10, 0, 0); got != 0 {
		t.Fatalf("ApproxFactor(b=0) = %v", got)
	}
	// b=k approaches 1-1/e from below as k grows.
	if f := ApproxFactor(1000000, 1000000, 0); math.Abs(f-(1-1/math.E)) > 1e-3 {
		t.Fatalf("large-k ApproxFactor %v", f)
	}
	if GreedyFactor(0.1) != 1-1/math.E-0.1 {
		t.Fatal("GreedyFactor wrong")
	}
}

func TestCeilTheta(t *testing.T) {
	if ceilTheta(0.5) != 1 || ceilTheta(math.NaN()) != 1 {
		t.Fatal("small/NaN input should clamp to 1")
	}
	if ceilTheta(2.1) != 3 {
		t.Fatal("ceil failed")
	}
	if ceilTheta(1e30) != int64(1e18) {
		t.Fatal("overflow clamp failed")
	}
}
