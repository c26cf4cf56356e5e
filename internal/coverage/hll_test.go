package coverage

import (
	"math"
	"testing"

	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// exactDegrees counts, per node, the number of sets containing it.
func exactDegrees(n int, sets [][]int32) []int {
	deg := make([]int, n)
	for _, s := range sets {
		for _, v := range s {
			deg[v]++
		}
	}
	return deg
}

func TestHLLDegreeAccuracy(t *testing.T) {
	const (
		n     = 64
		count = 4000
	)
	h := NewHLL(n, nil, 0)
	sets := randomSets(rng.New(5), n, count, 16)
	for _, s := range sets {
		h.Add(rrset.RRSet(s))
	}
	if h.NumSets() != count {
		t.Fatalf("NumSets = %d, want %d", h.NumSets(), count)
	}
	deg := exactDegrees(n, sets)
	// The standard error of a 2^8-register sketch is ~6.5%; individual
	// estimates beyond 4σ would signal a broken estimator, not noise.
	tol := 4 * h.RelError()
	for v := 0; v < n; v++ {
		got, want := float64(h.Degree(int32(v))), float64(deg[v])
		if want == 0 {
			continue
		}
		if math.Abs(got-want) > tol*want+3 {
			t.Errorf("node %d: estimated degree %v, exact %v (tol %v)", v, got, want, tol)
		}
	}
}

func TestHLLCoverageOfAccuracy(t *testing.T) {
	const (
		n     = 200
		count = 3000
	)
	h := NewHLL(n, nil, 0)
	sets := randomSets(rng.New(7), n, count, 12)
	for _, s := range sets {
		h.Add(rrset.RRSet(s))
	}
	seeds := []int32{0, 17, 55, 123, 199}
	covered := map[int]bool{}
	for i, s := range sets {
		for _, v := range s {
			for _, sd := range seeds {
				if v == sd {
					covered[i] = true
				}
			}
		}
	}
	want := float64(len(covered))
	got := float64(h.CoverageOf(seeds))
	tol := 4 * h.RelError()
	if math.Abs(got-want) > tol*want+3 {
		t.Fatalf("CoverageOf = %v, exact %v (tol %v)", got, want, tol)
	}
}

// TestHLLAbsorbEquivalence checks that AbsorbArena — serial and
// node-range-parallel — produces a register file byte-identical to
// absorbing the same sets one Add at a time.
func TestHLLAbsorbEquivalence(t *testing.T) {
	const (
		n     = 300
		count = 2500
	)
	sets := randomSets(rng.New(11), n, count, 10)
	var data []int32
	var ends []int64
	for _, s := range sets {
		data = append(data, s...)
		ends = append(ends, int64(len(data)))
	}

	ref := NewHLL(n, nil, 0)
	for _, s := range sets {
		ref.Add(rrset.RRSet(s))
	}

	defer func(old int) { parallelAbsorbMinSets = old }(parallelAbsorbMinSets)
	parallelAbsorbMinSets = 1 // force the parallel path at this size
	for _, workers := range []int{1, 2, 8} {
		h := NewHLL(n, nil, 0)
		h.SetWorkers(workers)
		if hits := h.AbsorbArena(data, ends, nil); hits != 0 {
			t.Fatalf("workers=%d: unexpected sentinel hits %d", workers, hits)
		}
		if h.NumSets() != ref.NumSets() {
			t.Fatalf("workers=%d: NumSets %d, want %d", workers, h.NumSets(), ref.NumSets())
		}
		for i := range ref.regs {
			if h.regs[i] != ref.regs[i] {
				t.Fatalf("workers=%d: register %d is %d, want %d", workers, i, h.regs[i], ref.regs[i])
			}
		}
	}
}

// TestHLLAbsorbSentinel checks sentinel-terminated sets are skipped and
// counted, and kept sets get the same ids as an Add-only stream of the
// survivors.
func TestHLLAbsorbSentinel(t *testing.T) {
	const n = 50
	sets := [][]int32{{1, 2, 3}, {4, 9}, {7}, {8, 9, 10}}
	sentinel := make([]bool, n)
	sentinel[9] = true // kills sets 1 (ends at 9) and... set 3 ends at 10
	var data []int32
	var ends []int64
	for _, s := range sets {
		data = append(data, s...)
		ends = append(ends, int64(len(data)))
	}
	h := NewHLL(n, nil, 0)
	if hits := h.AbsorbArena(data, ends, sentinel); hits != 1 {
		t.Fatalf("hits = %d, want 1 (only set {4,9} ends on the sentinel)", hits)
	}
	if h.NumSets() != 3 {
		t.Fatalf("NumSets = %d, want 3", h.NumSets())
	}
	ref := NewHLL(n, nil, 0)
	ref.Add(rrset.RRSet(sets[0]))
	ref.Add(rrset.RRSet(sets[2]))
	ref.Add(rrset.RRSet(sets[3]))
	for i := range ref.regs {
		if h.regs[i] != ref.regs[i] {
			t.Fatalf("register %d is %d, want %d", i, h.regs[i], ref.regs[i])
		}
	}
}

func TestMergeRegisters(t *testing.T) {
	a := []uint8{1, 5, 0, 2}
	b := []uint8{3, 1, 0, 7}
	if !MergeRegisters(a, b) {
		t.Fatal("same-length merge rejected")
	}
	want := []uint8{3, 5, 0, 7}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("a[%d] = %d, want %d", i, a[i], want[i])
		}
	}
	// Idempotent: merging again changes nothing.
	if !MergeRegisters(a, b) {
		t.Fatal("second merge rejected")
	}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("idempotence broken at %d", i)
		}
	}
	// Precision mismatch: rejected, destination untouched.
	snap := append([]uint8(nil), a...)
	if MergeRegisters(a, []uint8{9, 9}) {
		t.Fatal("length mismatch accepted")
	}
	for i := range snap {
		if a[i] != snap[i] {
			t.Fatal("mismatched merge mutated the destination")
		}
	}
}

func TestEstimateUnionEdgeCases(t *testing.T) {
	if EstimateUnion(nil, nil) >= 0 {
		t.Fatal("empty sketches should report -1")
	}
	if EstimateUnion([]uint8{1, 2}, []uint8{1}) >= 0 {
		t.Fatal("precision mismatch should report -1")
	}
	empty := make([]uint8, 256)
	if est := EstimateUnion(empty, empty); est < 0 || est > 1 {
		t.Fatalf("union of empty sketches estimates %v, want ~0", est)
	}
	if est := EstimateRegisters(nil); est >= 0 {
		t.Fatal("EstimateRegisters(nil) should report -1")
	}
	// Union dominates both operands: its registers are the pairwise max.
	h := NewHLL(2, nil, 0)
	for _, s := range randomSets(rng.New(3), 2, 500, 2) {
		h.Add(rrset.RRSet(s))
	}
	a, b := h.block(0), h.block(1)
	u := EstimateUnion(a, b)
	if u < EstimateRegisters(a)-1e-9 || u < EstimateRegisters(b)-1e-9 {
		t.Fatalf("union %v below an operand (%v, %v)", u, EstimateRegisters(a), EstimateRegisters(b))
	}
}

func TestNewHLLValidation(t *testing.T) {
	for _, p := range []int{1, 3, 17, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("precision %d accepted", p)
				}
			}()
			NewHLL(10, nil, p)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("outDeg length mismatch accepted")
			}
		}()
		NewHLL(10, make([]int32, 3), 0)
	}()
	h := NewHLL(10, nil, 0)
	if h.Precision() != HLLDefaultPrecision {
		t.Fatalf("default precision %d, want %d", h.Precision(), HLLDefaultPrecision)
	}
	if h.Kind() != EstimatorHLL {
		t.Fatal("Kind mismatch")
	}
	if h.MemoryBytes() < int64(10*(1<<HLLDefaultPrecision)) {
		t.Fatalf("MemoryBytes %d below the register file size", h.MemoryBytes())
	}
}

// TestHLLSelectSeedsWorkerIndependent pins sketch-backend seed selection
// to identical output for any worker count.
func TestHLLSelectSeedsWorkerIndependent(t *testing.T) {
	const (
		n     = 400
		count = 3000
		k     = 8
	)
	sets := randomSets(rng.New(19), n, count, 8)
	outDeg := make([]int32, n)
	for i := range outDeg {
		outDeg[i] = int32(i % 7)
	}
	build := func(workers int) GreedyResult {
		h := NewHLL(n, outDeg, 0)
		h.SetWorkers(workers)
		for _, s := range sets {
			h.Add(rrset.RRSet(s))
		}
		return h.SelectSeeds(GreedyOptions{K: k})
	}
	defer func(old int) { parallelGainsMinNodes = old }(parallelGainsMinNodes)
	parallelGainsMinNodes = 1
	ref := build(1)
	if len(ref.Seeds) != k {
		t.Fatalf("reference selected %d seeds, want %d", len(ref.Seeds), k)
	}
	for _, workers := range []int{2, 8} {
		got := build(workers)
		if len(got.Seeds) != len(ref.Seeds) {
			t.Fatalf("workers=%d: %d seeds, want %d", workers, len(got.Seeds), len(ref.Seeds))
		}
		for i := range got.Seeds {
			if got.Seeds[i] != ref.Seeds[i] {
				t.Fatalf("workers=%d: seed %d is %d, want %d", workers, i, got.Seeds[i], ref.Seeds[i])
			}
		}
		for i := range got.Coverage {
			if got.Coverage[i] != ref.Coverage[i] {
				t.Fatalf("workers=%d: coverage[%d] %d, want %d", workers, i, got.Coverage[i], ref.Coverage[i])
			}
		}
		if got.CoverageUpper != ref.CoverageUpper {
			t.Fatalf("workers=%d: Λᵘ %d, want %d", workers, got.CoverageUpper, ref.CoverageUpper)
		}
	}
}

// TestHLLSelectSeedsQuality: on a graph where a handful of nodes cover
// most sets, the sketch-driven greedy must find seeds whose *exact*
// coverage is within the certified relative error of the exact greedy's.
func TestHLLSelectSeedsQuality(t *testing.T) {
	const (
		n     = 500
		count = 4000
		k     = 5
	)
	r := rng.New(23)
	sets := make([][]int32, count)
	for i := range sets {
		// Popular core nodes appear in most sets; a random tail pads them.
		s := []int32{int32(r.Intn(10))}
		for j := 0; j < 4; j++ {
			s = append(s, int32(10+r.Intn(n-10)))
		}
		sets[i] = s
	}
	exact := NewSharded(n, nil, 1)
	h := NewHLL(n, nil, 0)
	for _, s := range sets {
		exact.Add(rrset.RRSet(s))
		h.Add(rrset.RRSet(s))
	}
	exactSel := exact.SelectSeeds(GreedyOptions{K: k})
	hllSel := h.SelectSeeds(GreedyOptions{K: k})
	want := exactSel.TotalCoverage(0)
	got := exact.CoverageOf(hllSel.Seeds) // exact coverage of sketch-chosen seeds
	slack := 4 * h.RelError() * float64(want)
	if float64(got) < float64(want)-slack {
		t.Fatalf("sketch seeds cover %d exactly, exact greedy covers %d (slack %v)", got, want, slack)
	}
}
