package coverage

import (
	"math"
	"slices"
	"testing"

	"subsim/internal/rng"
)

// refTopSum is the reference for the Λᵘ top-L term: the bounded
// insertion buffer that scanned every stored gain before the frontier
// walk replaced it. It keeps the l largest positive gains in an
// ascending buffer and sums the buffer in that order.
func refTopSum[G int64 | float64](gains []G, l int) G {
	if l <= 0 {
		return 0
	}
	best := make([]G, 0, l)
	for _, g := range gains {
		if g <= 0 {
			continue
		}
		if len(best) < l {
			best = append(best, g)
			if len(best) == l {
				insertionSort(best)
			}
			continue
		}
		if g > best[0] {
			// Replace the minimum and restore order by insertion.
			best[0] = g
			for i := 1; i < len(best) && best[i] < best[i-1]; i++ {
				best[i], best[i-1] = best[i-1], best[i]
			}
		}
	}
	if len(best) < l {
		insertionSort(best)
	}
	var s G
	for _, g := range best {
		s += g
	}
	return s
}

func insertionSort[G int64 | float64](a []G) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// walkLengths are the L values every property check exercises: none,
// one, a middle prefix, exactly the heap size, and more than it holds.
func walkLengths(size int) []int {
	return []int{0, 1, size / 2, size, size + 3}
}

// heapOp picks the next random mutation of a heap under test: 0 pops
// the top (a greedy pick), 1 pops the top and pushes it back with a
// smaller recomputed gain (a stale CELF recompute), 2 pushes one of the
// fresh nodes not yet in the heap, and -1 means none is possible.
func heapOp(r *rng.Source, size, fresh int) int {
	switch {
	case size == 0 && fresh == 0:
		return -1
	case size == 0:
		return 2
	case fresh == 0:
		return r.Intn(2)
	}
	return r.Intn(3)
}

// TestCELFHeapTopSumProperty drives celfHeap[int64] through random pop /
// stale-recompute / push sequences — with heavy gain ties, zero gains,
// and the out-degree tie-break on and off — and after every step checks
// the frontier walk against refTopSum over the stored gains, and that
// the walk left the heap untouched.
func TestCELFHeapTopSumProperty(t *testing.T) {
	r := rng.New(41)
	var f []frontierItem[int64]
	var vals []int64
	for trial := 0; trial < 300; trial++ {
		nodes := 1 + r.Intn(120)
		maxGain := 1 + r.Intn(6) // small ranges force ties
		if trial%4 == 0 {
			maxGain = 1 << 20
		}
		h := celfHeap[int64]{entries: make([]celfEntry[int64], 0, nodes)}
		if trial%2 == 1 {
			h.outDeg = make([]int32, nodes)
			for v := range h.outDeg {
				h.outDeg[v] = int32(r.Intn(4))
			}
		}
		initial := nodes / 2
		for v := 0; v < initial; v++ {
			h.entries = append(h.entries, celfEntry[int64]{gain: int64(r.Intn(maxGain + 1)), node: int32(v)})
		}
		h.init()
		next := initial
		for step := 0; step < 2*nodes; step++ {
			op := heapOp(r, h.Len(), nodes-next)
			if op < 0 {
				break
			}
			switch op {
			case 0:
				h.pop()
			case 1:
				e := h.pop()
				e.gain = int64(r.Intn(int(e.gain) + 1))
				e.iter++
				h.push(e)
			case 2:
				h.push(celfEntry[int64]{gain: int64(r.Intn(maxGain + 1)), node: int32(next)})
				next++
			}
			gains := make([]int64, h.Len())
			for i, e := range h.entries {
				gains[i] = e.gain
			}
			before := slices.Clone(h.entries)
			for _, l := range walkLengths(h.Len()) {
				if got, want := h.topSum(l, &f, &vals), refTopSum(gains, l); got != want {
					t.Fatalf("trial %d step %d: topSum(%d) = %d, reference %d (gains %v)", trial, step, l, got, want, gains)
				}
			}
			if !slices.Equal(before, h.entries) {
				t.Fatalf("trial %d step %d: topSum modified the heap", trial, step)
			}
		}
	}
}

// hllTestGain draws a float gain for the sketch-heap property test. Mode 0
// draws from a handful of values (ties, including zero); mode 1 spans
// seventeen orders of magnitude, where summing in any order but
// ascending rounds differently.
func hllTestGain(r *rng.Source, mode int) float64 {
	if r.Intn(5) == 0 {
		return 0
	}
	if mode == 0 {
		return float64(r.Intn(5)) * 0.1
	}
	return r.Float64() * math.Pow(10, float64(r.Intn(17)))
}

// TestHLLHeapTopSumProperty is TestCELFHeapTopSumProperty for the
// float-valued heap the sketch backend selects with (celfHeap[float64]).
// The reference sums its sorted buffer ascending, so the walk must match
// it bit for bit.
func TestHLLHeapTopSumProperty(t *testing.T) {
	r := rng.New(43)
	var f []frontierItem[float64]
	var vals []float64
	for trial := 0; trial < 300; trial++ {
		nodes := 1 + r.Intn(120)
		mode := trial % 2
		h := celfHeap[float64]{entries: make([]celfEntry[float64], 0, nodes)}
		if trial%4 >= 2 {
			h.outDeg = make([]int32, nodes)
			for v := range h.outDeg {
				h.outDeg[v] = int32(r.Intn(4))
			}
		}
		initial := nodes / 2
		for v := 0; v < initial; v++ {
			h.entries = append(h.entries, celfEntry[float64]{gain: hllTestGain(r, mode), node: int32(v)})
		}
		h.init()
		next := initial
		for step := 0; step < 2*nodes; step++ {
			op := heapOp(r, h.Len(), nodes-next)
			if op < 0 {
				break
			}
			switch op {
			case 0:
				h.pop()
			case 1:
				e := h.pop()
				if r.Intn(4) == 0 {
					e.gain = 0
				} else {
					e.gain *= r.Float64()
				}
				e.iter++
				h.push(e)
			case 2:
				h.push(celfEntry[float64]{gain: hllTestGain(r, mode), node: int32(next)})
				next++
			}
			gains := make([]float64, h.Len())
			for i, e := range h.entries {
				gains[i] = e.gain
			}
			before := slices.Clone(h.entries)
			for _, l := range walkLengths(h.Len()) {
				got, want := h.topSum(l, &f, &vals), refTopSum(gains, l)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d step %d: topSum(%d) = %v (%#x), reference %v (%#x)",
						trial, step, l, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			if !slices.Equal(before, h.entries) {
				t.Fatalf("trial %d step %d: topSum modified the heap", trial, step)
			}
		}
	}
}
