package sampling

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"subsim/internal/rng"
)

// checkMarginals runs `draws` subset draws through `sample` and verifies
// that each element's empirical inclusion frequency matches probs within
// 5-sigma binomial tolerance.
func checkMarginals(t *testing.T, probs []float64, draws int, sample func(r *rng.Source, yield func(int) bool)) {
	t.Helper()
	r := rng.New(12345)
	counts := make([]int, len(probs))
	for d := 0; d < draws; d++ {
		sample(r, func(i int) bool {
			counts[i]++
			return true
		})
	}
	for i, p := range probs {
		got := float64(counts[i]) / float64(draws)
		tol := 5*math.Sqrt(p*(1-p)/float64(draws)) + 2e-4
		if math.Abs(got-p) > tol {
			t.Fatalf("element %d: frequency %v, want %v ± %v", i, got, p, tol)
		}
	}
}

func TestNaiveMarginals(t *testing.T) {
	probs := []float64{0, 0.1, 0.5, 0.9, 1, 0.33}
	checkMarginals(t, probs, 100000, func(r *rng.Source, y func(int) bool) {
		Naive(r, probs, y)
	})
}

func TestNaiveEarlyStop(t *testing.T) {
	r := rng.New(1)
	probs := []float64{1, 1, 1, 1}
	var got []int
	Naive(r, probs, func(i int) bool {
		got = append(got, i)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("early stop yielded %v", got)
	}
}

func TestEqualSkipMarginals(t *testing.T) {
	for _, p := range []float64{0.01, 0.2, 0.5, 0.95} {
		h := 40
		probs := make([]float64, h)
		for i := range probs {
			probs[i] = p
		}
		logP := math.Log1p(-p)
		checkMarginals(t, probs, 100000, func(r *rng.Source, y func(int) bool) {
			EqualSkip(r, h, p, logP, y)
		})
	}
}

func TestEqualSkipEdgeCases(t *testing.T) {
	r := rng.New(2)
	called := false
	EqualSkip(r, 0, 0.5, math.Log1p(-0.5), func(int) bool { called = true; return true })
	if called {
		t.Fatal("EqualSkip(h=0) yielded")
	}
	EqualSkip(r, 10, 0, 0, func(int) bool { called = true; return true })
	if called {
		t.Fatal("EqualSkip(p=0) yielded")
	}
	// p = 1 must yield every index exactly once, in order.
	var got []int
	EqualSkip(r, 5, 1, math.Inf(-1), func(i int) bool { got = append(got, i); return true })
	if len(got) != 5 {
		t.Fatalf("EqualSkip(p=1) yielded %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("EqualSkip(p=1) out of order: %v", got)
		}
	}
}

func TestEqualSkipEarlyStop(t *testing.T) {
	r := rng.New(3)
	n := 0
	EqualSkip(r, 100, 1, math.Inf(-1), func(int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop yielded %d", n)
	}
}

// TestEqualSkipMatchesNaiveSizeDistribution compares the first two
// moments of the subset-size distribution between the naive and skip
// kernels.
func TestEqualSkipMatchesNaiveSizeDistribution(t *testing.T) {
	const h, p, draws = 30, 0.3, 60000
	probs := make([]float64, h)
	for i := range probs {
		probs[i] = p
	}
	logP := math.Log1p(-p)
	moments := func(sample func(r *rng.Source, y func(int) bool)) (mean, variance float64) {
		r := rng.New(77)
		var sum, sumSq float64
		for d := 0; d < draws; d++ {
			c := 0
			sample(r, func(int) bool { c++; return true })
			sum += float64(c)
			sumSq += float64(c) * float64(c)
		}
		mean = sum / draws
		variance = sumSq/draws - mean*mean
		return mean, variance
	}
	m1, v1 := moments(func(r *rng.Source, y func(int) bool) { Naive(r, probs, y) })
	m2, v2 := moments(func(r *rng.Source, y func(int) bool) { EqualSkip(r, h, p, logP, y) })
	if math.Abs(m1-m2) > 0.1 {
		t.Fatalf("means differ: naive %v, skip %v", m1, m2)
	}
	if math.Abs(v1-v2) > 0.5 {
		t.Fatalf("variances differ: naive %v, skip %v", v1, v2)
	}
}

func TestSortedSkipMarginals(t *testing.T) {
	probs := []float64{1, 0.8, 0.5, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01, 0.01, 0}
	if !IsSortedDesc(probs) {
		t.Fatal("test fixture not sorted")
	}
	checkMarginals(t, probs, 150000, func(r *rng.Source, y func(int) bool) {
		SortedSkip(r, probs, y)
	})
}

func TestSortedSkipSingleElement(t *testing.T) {
	checkMarginals(t, []float64{0.4}, 100000, func(r *rng.Source, y func(int) bool) {
		SortedSkip(r, []float64{0.4}, y)
	})
}

func TestSortedSkipAllOnes(t *testing.T) {
	probs := []float64{1, 1, 1, 1, 1}
	r := rng.New(4)
	for d := 0; d < 100; d++ {
		var got []int
		SortedSkip(r, probs, func(i int) bool { got = append(got, i); return true })
		if len(got) != 5 {
			t.Fatalf("all-ones draw yielded %v", got)
		}
	}
}

func TestSortedSkipAllZeros(t *testing.T) {
	probs := []float64{0, 0, 0}
	r := rng.New(5)
	SortedSkip(r, probs, func(int) bool {
		t.Fatal("zero probabilities yielded an element")
		return false
	})
}

func TestSortedSkipEarlyStop(t *testing.T) {
	probs := []float64{1, 1, 1, 1}
	r := rng.New(6)
	n := 0
	SortedSkip(r, probs, func(int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop yielded %d", n)
	}
}

// TestSortedSkipPropertyRandomVectors quick-checks marginals on random
// descending probability vectors.
func TestSortedSkipPropertyRandomVectors(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h := 1 + r.Intn(25)
		probs := make([]float64, h)
		for i := range probs {
			probs[i] = r.Float64()
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
		const draws = 20000
		counts := make([]int, h)
		for d := 0; d < draws; d++ {
			SortedSkip(r, probs, func(i int) bool { counts[i]++; return true })
		}
		for i, p := range probs {
			got := float64(counts[i]) / draws
			tol := 6*math.Sqrt(p*(1-p)/draws) + 1e-3
			if math.Abs(got-p) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIsSortedDesc(t *testing.T) {
	cases := []struct {
		probs []float64
		want  bool
	}{
		{nil, true},
		{[]float64{0.5}, true},
		{[]float64{0.9, 0.5, 0.5, 0.1}, true},
		{[]float64{0.1, 0.2}, false},
	}
	for _, c := range cases {
		if got := IsSortedDesc(c.probs); got != c.want {
			t.Errorf("IsSortedDesc(%v) = %v", c.probs, got)
		}
	}
}

// TestKernelsAgreeOnSizeMean cross-checks all three kernels on a shared
// probability vector: the expected subset size must agree.
func TestKernelsAgreeOnSizeMean(t *testing.T) {
	probs := []float64{0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7}
	sorted := append([]float64(nil), probs...) // already descending
	logP := math.Log1p(-0.7)
	kernels := map[string]func(r *rng.Source, y func(int) bool){
		"naive":  func(r *rng.Source, y func(int) bool) { Naive(r, probs, y) },
		"equal":  func(r *rng.Source, y func(int) bool) { EqualSkip(r, len(probs), 0.7, logP, y) },
		"sorted": func(r *rng.Source, y func(int) bool) { SortedSkip(r, sorted, y) },
	}
	want := 0.7 * float64(len(probs))
	for name, kernel := range kernels {
		r := rng.New(99)
		const draws = 40000
		total := 0
		for d := 0; d < draws; d++ {
			kernel(r, func(int) bool { total++; return true })
		}
		got := float64(total) / draws
		if math.Abs(got-want) > 0.05 {
			t.Errorf("%s: mean size %v, want %v", name, got, want)
		}
	}
}
