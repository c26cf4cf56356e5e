package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestSourceOwnsCacheLines pins the padding that keeps the Sources of
// concurrent workers off each other's cache lines: a Source fills two
// lines, and every Source New or Split returns starts on a sourceSize
// boundary, so no two of them share a line or an adjacent-line pair.
func TestSourceOwnsCacheLines(t *testing.T) {
	if got := unsafe.Sizeof(Source{}); got != sourceSize {
		t.Fatalf("Sizeof(Source) = %d, want %d", got, sourceSize)
	}
	base := New(1)
	for i := 0; i < 64; i++ {
		if p := uintptr(unsafe.Pointer(base.Split())); p%sourceSize != 0 {
			t.Fatalf("Source %d at %#x, not %d-byte aligned", i, p, sourceSize)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for different seeds collided %d times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.s0 == 0 && r.s1 == 0 && r.s2 == 0 && r.s3 == 0 {
		t.Fatal("zero seed produced all-zero state")
	}
	var x uint64
	for i := 0; i < 100; i++ {
		x |= r.Uint64()
	}
	if x == 0 {
		t.Fatal("zero seed produces only zeros")
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(99)
	b := New(7)
	b.Seed(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Seed does not reproduce New")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(5)
	c1 := a.Split()
	c2 := a.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestOpenFloat64Positive(t *testing.T) {
	r := New(8)
	for i := 0; i < 100000; i++ {
		f := r.OpenFloat64()
		if f <= 0 || f >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(10)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestMul64AgainstStdlib(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		wantHi, wantLo := bits.Mul64(a, b)
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(14)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9} {
		const draws = 100000
		hits := 0
		for i := 0; i < draws; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / draws
		tol := 5 * math.Sqrt(p*(1-p)/draws)
		if math.Abs(got-p) > tol {
			t.Fatalf("Bernoulli(%v) frequency %v (tol %v)", p, got, tol)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(15)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(16)
	const n = 5
	const draws = 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Perm first element %d count %d far from %v", i, c, want)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(18)
	for _, lambda := range []float64{0.5, 1, 4} {
		const draws = 200000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += r.Exponential(lambda)
		}
		mean := sum / draws
		want := 1 / lambda
		if math.Abs(mean-want) > 0.03*want+0.01 {
			t.Fatalf("Exponential(%v) mean %v, want ~%v", lambda, mean, want)
		}
	}
}

func TestExponentialPanics(t *testing.T) {
	r := New(19)
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	r.Exponential(0)
}

func TestWeibullMean(t *testing.T) {
	r := New(20)
	// Weibull(a=1, b) is Exponential with mean b; Weibull(2, b) has mean
	// b·Γ(1.5) = b·√π/2.
	cases := []struct{ a, b, want float64 }{
		{1, 2, 2},
		{2, 1, math.Sqrt(math.Pi) / 2},
	}
	for _, c := range cases {
		const draws = 200000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += r.Weibull(c.a, c.b)
		}
		mean := sum / draws
		if math.Abs(mean-c.want) > 0.03*c.want {
			t.Fatalf("Weibull(%v,%v) mean %v, want ~%v", c.a, c.b, mean, c.want)
		}
	}
}

func TestWeibullPanics(t *testing.T) {
	r := New(21)
	defer func() {
		if recover() == nil {
			t.Fatal("Weibull(0,1) did not panic")
		}
	}()
	r.Weibull(0, 1)
}

func TestUniformRange(t *testing.T) {
	r := New(22)
	for i := 0; i < 10000; i++ {
		v := r.UniformRange(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("UniformRange out of [-3,7): %v", v)
		}
	}
	if v := r.UniformRange(4, 4); v != 4 {
		t.Fatalf("degenerate range: %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UniformRange(1,0) did not panic")
		}
	}()
	r.UniformRange(1, 0)
}

func TestGeometricExtremes(t *testing.T) {
	r := New(23)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 1 {
			t.Fatalf("Geometric(1) = %d", g)
		}
		if g := r.Geometric(1.5); g != 1 {
			t.Fatalf("Geometric(1.5) = %d", g)
		}
		if g := r.Geometric(0); g != GeometricSkipInfinity {
			t.Fatalf("Geometric(0) = %d", g)
		}
		if g := r.Geometric(-0.1); g != GeometricSkipInfinity {
			t.Fatalf("Geometric(-0.1) = %d", g)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(24)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		const draws = 200000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / draws
		want := 1 / p
		// std of the mean: sqrt((1-p)/p²/draws)
		tol := 6 * math.Sqrt((1-p)/(p*p*draws))
		if math.Abs(mean-want) > tol+0.01 {
			t.Fatalf("Geometric(%v) mean %v, want %v ± %v", p, mean, want, tol)
		}
	}
}

func TestGeometricPMF(t *testing.T) {
	r := New(25)
	p := 0.3
	const draws = 300000
	counts := map[int64]int{}
	for i := 0; i < draws; i++ {
		counts[r.Geometric(p)]++
	}
	for i := int64(1); i <= 5; i++ {
		want := math.Pow(1-p, float64(i-1)) * p
		got := float64(counts[i]) / draws
		tol := 5 * math.Sqrt(want*(1-want)/draws)
		if math.Abs(got-want) > tol {
			t.Fatalf("P(X=%d) = %v, want %v ± %v", i, got, want, tol)
		}
	}
}

func TestGeometricSupportStartsAtOne(t *testing.T) {
	r := New(26)
	for i := 0; i < 100000; i++ {
		if g := r.Geometric(0.7); g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
	}
}

func TestGeometricFromLogMatchesGeometric(t *testing.T) {
	// Same underlying uniform stream must produce identical variates.
	for _, p := range []float64{0.01, 0.2, 0.5, 0.99} {
		a, b := New(27), New(27)
		logP := math.Log1p(-p)
		for i := 0; i < 10000; i++ {
			if x, y := a.Geometric(p), b.GeometricFromLog(logP); x != y {
				t.Fatalf("p=%v: Geometric=%d GeometricFromLog=%d", p, x, y)
			}
		}
	}
}

func TestGeometricFromLogExtremes(t *testing.T) {
	r := New(28)
	if g := r.GeometricFromLog(math.Inf(-1)); g != 1 {
		t.Fatalf("GeometricFromLog(-Inf) = %d", g)
	}
	if g := r.GeometricFromLog(0); g != GeometricSkipInfinity {
		t.Fatalf("GeometricFromLog(0) = %d", g)
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewAlias([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	r := New(29)
	for i := 0; i < 1000; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-outcome alias returned non-zero")
		}
	}
}

func TestAliasFrequencies(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 0, 10}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != len(weights) {
		t.Fatalf("N = %d", a.N())
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	r := New(30)
	const draws = 400000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / draws
		tol := 5*math.Sqrt(want*(1-want)/draws) + 1e-9
		if math.Abs(got-want) > tol {
			t.Fatalf("outcome %d frequency %v, want %v ± %v", i, got, want, tol)
		}
	}
	if counts[4] != 0 {
		t.Fatalf("zero-weight outcome sampled %d times", counts[4])
	}
}

func TestAliasUniformWeights(t *testing.T) {
	n := 64
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := New(31)
	const draws = 256000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	want := float64(draws) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("uniform alias outcome %d count %d far from %v", i, c, want)
		}
	}
}

// TestAliasPropertyRandomWeights quick-checks that randomly weighted
// tables produce the heaviest outcome most often.
func TestAliasPropertyRandomWeights(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 2 + r.Intn(20)
		weights := make([]float64, n)
		heaviest := 0
		for i := range weights {
			weights[i] = r.Float64() + 0.01
			if weights[i] > weights[heaviest] {
				heaviest = i
			}
		}
		// Make the heaviest clearly dominant.
		weights[heaviest] += float64(n)
		a, err := NewAlias(weights)
		if err != nil {
			return false
		}
		counts := make([]int, n)
		for i := 0; i < 20000; i++ {
			counts[a.Sample(r)]++
		}
		best := 0
		for i, c := range counts {
			if c > counts[best] {
				best = i
			}
			_ = c
		}
		return best == heaviest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
