// Package bounds collects the concentration-bound arithmetic shared by
// the sampling-based IM algorithms: the martingale lower/upper influence
// bounds of the paper's Equations (1) and (2), the maximum sample counts
// θ_max of Equations (3) and (4), their OPIM-C and IMM counterparts, and
// the log-binomial helper they are all built on.
//
// Conventions: n is the node count, θ the number of RR sets, Λ a coverage
// count over those sets, and δ a failure probability. All bounds are in
// "influence units" (expected numbers of nodes), i.e. already scaled by
// n/θ.
package bounds

import "math"

// LogChoose returns ln C(n, k), the log binomial coefficient, computed
// with log-gamma so it is stable for the n in the millions and k in the
// thousands used by the sample-size formulas. It returns 0 for k <= 0 or
// k >= n (and -Inf never).
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k == 0 || k == n {
		return 0
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// LowerBound is the paper's Equation (1): a (1-δ)-confidence lower bound
// on the expected influence of a fixed seed set whose coverage over an
// independent collection of θ RR sets is cov. The result is clamped to
// [0, n].
func LowerBound(cov int64, theta int64, n int, delta float64) float64 {
	if theta <= 0 {
		return 0
	}
	eta := math.Log(1 / delta)
	root := math.Sqrt(float64(cov)+2*eta/9) - math.Sqrt(eta/2)
	if root < 0 {
		root = 0
	}
	lb := (root*root - eta/18) * float64(n) / float64(theta)
	if lb < 0 {
		return 0
	}
	if lb > float64(n) {
		return float64(n)
	}
	return lb
}

// UpperBound is the paper's Equation (2): a (1-δ)-confidence upper bound
// on the expected influence of the optimal size-k seed set, given the
// coverage upper bound Λᵘ (see coverage.GreedyResult.CoverageUpper) over
// θ RR sets. The result is clamped to [0, n].
func UpperBound(covUpper int64, theta int64, n int, delta float64) float64 {
	if theta <= 0 {
		return float64(n)
	}
	eta := math.Log(1 / delta)
	root := math.Sqrt(float64(covUpper)+eta/2) + math.Sqrt(eta/2)
	ub := root * root * float64(n) / float64(theta)
	if ub > float64(n) {
		return float64(n)
	}
	if ub < 0 {
		return 0
	}
	return ub
}

// Theta0 is the initial RR sample count 3·ln(1/δ) used by HIST's two
// phases (and our OPIM-C), derived from the Monte-Carlo estimation lower
// bound of Dagum et al. with unit expectation and relative error near 1.
func Theta0(delta float64) int64 {
	t := math.Ceil(3 * math.Log(1/delta))
	if t < 1 {
		return 1
	}
	return int64(t)
}

// ThetaMaxSentinel is the paper's Equation (3): the RR sample budget that
// guarantees the sentinel phase's approximation with probability
// 1 - δ₁/3, obtained from Lemma 6 with I(S_k°) replaced by its lower
// bound k, ln C(n,b) by ln C(n,k) and 1-x^b by 1.
func ThetaMaxSentinel(n, k int, eps1, delta1 float64) int64 {
	ln6d := math.Log(6 / delta1)
	a := math.Sqrt(ln6d)
	b := math.Sqrt(LogChoose(n, k) + ln6d)
	t := 2 * float64(n) * (a + b) * (a + b) / (eps1 * eps1 * float64(k))
	return ceilTheta(t)
}

// ThetaMaxIMSentinel is the paper's Equation (4): the RR sample budget of
// the IM-Sentinel phase, from Lemma 7 with I(S_k°) replaced by k.
func ThetaMaxIMSentinel(n, k, b int, eps2, delta2 float64) int64 {
	ln9d := math.Log(9 / delta2)
	alpha := math.Sqrt(ln9d)
	beta := math.Sqrt((1 - 1/math.E) * (LogChoose(n-b, k-b) + ln9d))
	t := 2 * float64(n) * (alpha + beta) * (alpha + beta) / (eps2 * eps2 * float64(k))
	return ceilTheta(t)
}

// ThetaMaxOPIMC is the sample budget of OPIM-C (Tang et al. 2018) with
// the trivial OPT lower bound k: enough RR sets for the greedy seed set
// to be (1-1/e-ε)-approximate with probability 1-δ even in the final
// iteration.
func ThetaMaxOPIMC(n, k int, eps, delta float64) int64 {
	c := 1 - 1/math.E
	ln6d := math.Log(6 / delta)
	a := c * math.Sqrt(ln6d)
	b := math.Sqrt(c * (LogChoose(n, k) + ln6d))
	t := 2 * float64(n) * (a + b) * (a + b) / (eps * eps * float64(k))
	return ceilTheta(t)
}

// IMMTheta returns λ*/LB, the RR sample count IMM uses once a lower bound
// LB on OPT_k is known, with failure exponent l (δ = n^{-l}).
func IMMTheta(n, k int, eps, l, lb float64) int64 {
	return ceilTheta(IMMLambdaStar(n, k, eps, l) / lb)
}

// IMMLambdaStar is IMM's λ* constant (Tang et al. 2015, Theorem 1):
// λ* = 2n·((1-1/e)·α + β)²·ε⁻², with α = √(l·ln n + ln 2) and
// β = √((1-1/e)·(ln C(n,k) + l·ln n + ln 2)).
func IMMLambdaStar(n, k int, eps, l float64) float64 {
	c := 1 - 1/math.E
	logn := math.Log(float64(n))
	alpha := math.Sqrt(l*logn + math.Ln2)
	beta := math.Sqrt(c * (LogChoose(n, k) + l*logn + math.Ln2))
	return 2 * float64(n) * (c*alpha + beta) * (c*alpha + beta) / (eps * eps)
}

// IMMLambdaPrime is IMM's λ' constant used by the OPT-estimation phase
// (Tang et al. 2015, Section 4.2), with ε' the phase's error parameter.
func IMMLambdaPrime(n, k int, epsPrime, l float64) float64 {
	logn := math.Log(float64(n))
	return (2 + 2*epsPrime/3) * (LogChoose(n, k) + l*logn + math.Log(math.Log2(float64(n)))) *
		float64(n) / (epsPrime * epsPrime)
}

func ceilTheta(t float64) int64 {
	if t < 1 || math.IsNaN(t) {
		return 1
	}
	if t > 1e18 {
		return int64(1e18)
	}
	return int64(math.Ceil(t))
}

// ApproxFactor returns 1 - (1-1/k)^b - eps, the sentinel-phase
// approximation target for a size-b prefix (paper Section 4.1); with
// b == k it approaches the classic 1 - 1/e - eps.
func ApproxFactor(k, b int, eps float64) float64 {
	return 1 - math.Pow(1-1/float64(k), float64(b)) - eps
}

// GreedyFactor returns 1 - 1/e - eps, the standard approximation target.
func GreedyFactor(eps float64) float64 { return 1 - 1/math.E - eps }
