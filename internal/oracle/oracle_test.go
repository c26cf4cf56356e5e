package oracle

import (
	"math"
	"runtime"
	"testing"

	"subsim/internal/diffusion"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

func oracleGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferentialAttachment(2000, 5, false, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	return g
}

func TestOracleMatchesForwardMC(t *testing.T) {
	g := oracleGraph(t)
	o, err := New(rrset.NewSubsim(g), 60000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, seeds := range [][]int32{{0}, {1, 2, 3}, {10, 500, 900, 1500}} {
		est := o.Estimate(seeds)
		fwd := diffusion.EstimateParallel(g, seeds, 40000, diffusion.IC, 2, 2)
		if math.Abs(est-fwd) > 0.08*fwd+1.5 {
			t.Fatalf("seeds %v: oracle %v vs forward %v", seeds, est, fwd)
		}
		lo, hi := o.Interval(seeds, 0.01)
		if lo > est || hi < est {
			t.Fatalf("interval [%v,%v] excludes the point estimate %v", lo, hi, est)
		}
		if lo > fwd+2 || hi < fwd-2 {
			t.Fatalf("interval [%v,%v] excludes the truth %v", lo, hi, fwd)
		}
	}
}

func TestOracleValidation(t *testing.T) {
	g := oracleGraph(t)
	if _, err := New(rrset.NewVanilla(g), 0, 1, 1); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := NewWithPrecision(rrset.NewVanilla(g), 0, 0.1, 10, 1, 1); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewWithPrecision(rrset.NewVanilla(g), 0.5, 0, 10, 1, 1); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := NewWithPrecision(rrset.NewVanilla(g), math.NaN(), 0.1, 10, 1, 1); err == nil {
		t.Error("eps=NaN accepted")
	}
	if _, err := NewWithPrecision(rrset.NewVanilla(g), 1e-300, 0.1, 10, 1, 1); err == nil {
		t.Error("theta past an int64 accepted")
	}
	if _, err := New(rrset.NewVanilla(g), 1<<40, 1, 1); err == nil {
		t.Error("theta past what a collection holds accepted")
	}
}

func TestOraclePrecisionSizing(t *testing.T) {
	g := oracleGraph(t)
	o, err := NewWithPrecision(rrset.NewVanilla(g), 0.5, 0.1, 100, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantTheta := int64(math.Ceil(3 * float64(g.N()) * math.Log(20) / (0.25 * 100)))
	if o.Theta() != wantTheta {
		t.Fatalf("theta = %d, want %d", o.Theta(), wantTheta)
	}
	if o.Stats().Sets != wantTheta {
		t.Fatalf("stats sets %d", o.Stats().Sets)
	}
}

func TestOracleCoverageMonotone(t *testing.T) {
	g := oracleGraph(t)
	o, err := New(rrset.NewVanilla(g), 5000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	small := o.Coverage([]int32{0})
	large := o.Coverage([]int32{0, 1, 2, 3, 4})
	if large < small {
		t.Fatalf("coverage not monotone: %d < %d", large, small)
	}
	// Out-of-range seeds are ignored, not fatal.
	if got := o.Coverage([]int32{-5, 1 << 20}); got != 0 {
		t.Fatalf("out-of-range coverage %d", got)
	}
	// Duplicate seeds count once.
	if o.Coverage([]int32{0, 0, 0}) != small {
		t.Fatal("duplicates double counted")
	}
}

func TestOracleEmptySeeds(t *testing.T) {
	g := oracleGraph(t)
	o, err := New(rrset.NewVanilla(g), 100, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.Estimate(nil) != 0 {
		t.Fatal("empty seed set has nonzero estimate")
	}
	lo, hi := o.Interval(nil, 0.1)
	if lo != 0 || hi <= 0 {
		t.Fatalf("empty interval [%v,%v]", lo, hi)
	}
}

// TestOracleWorkersDefault pins New's workers contract: 0 (what
// subsim.NewInfluenceOracle passes) resolves to GOMAXPROCS instead of a
// single worker, and the worker count never changes an answer — the
// point estimate and both interval ends are bit-identical to workers=1.
func TestOracleWorkersDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	g := oracleGraph(t)
	auto, err := New(rrset.NewSubsim(g), 8000, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := auto.idx.Workers(); got != 3 {
		t.Fatalf("workers=0 resolved to %d, want GOMAXPROCS = 3", got)
	}
	serial, err := New(rrset.NewSubsim(g), 8000, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Stats() != serial.Stats() {
		t.Fatalf("stats %+v, want %+v", auto.Stats(), serial.Stats())
	}
	for _, seeds := range [][]int32{{0}, {1, 2, 3}, {10, 500, 900, 1500}} {
		a, s := auto.Estimate(seeds), serial.Estimate(seeds)
		if math.Float64bits(a) != math.Float64bits(s) {
			t.Fatalf("seeds %v: Estimate %v with workers=0, %v with workers=1", seeds, a, s)
		}
		alo, ahi := auto.Interval(seeds, 0.05)
		slo, shi := serial.Interval(seeds, 0.05)
		if math.Float64bits(alo) != math.Float64bits(slo) || math.Float64bits(ahi) != math.Float64bits(shi) {
			t.Fatalf("seeds %v: Interval [%v,%v] with workers=0, [%v,%v] with workers=1", seeds, alo, ahi, slo, shi)
		}
	}
}
