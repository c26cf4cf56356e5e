package coverage

import (
	"testing"

	"subsim/internal/rng"
)

// refTopSum is the reference for the Λᵘ top-L term: the bounded
// insertion buffer that scanned every stored gain before the frontier
// walk replaced it. It keeps the l largest positive gains in an
// ascending buffer and sums the buffer in that order.
func refTopSum(gains []int64, l int) int64 {
	if l <= 0 {
		return 0
	}
	best := make([]int64, 0, l)
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
	var s int64
	for _, g := range best {
		s += g
	}
	return s
}

func insertionSort(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// walkLengths are the L values every property check exercises: none,
// one, a middle prefix, exactly the number of stored entries, and more
// than that.
func walkLengths(size int) []int {
	return []int{0, 1, size / 2, size, size + 3}
}

// bucketShifts are the sparseBucketShift values the queue tests run
// under: every top bucket sorted into the active buffer, every one
// marked in the bitmap, and a mix (buckets over a quarter of the keys
// in the bitmap).
var bucketShifts = []int{0, 63, 2}

// restoreBucketShift restores sparseBucketShift when the test ends.
func restoreBucketShift(t *testing.T) {
	t.Helper()
	old := sparseBucketShift
	t.Cleanup(func() { sparseBucketShift = old })
}

// TestBucketQueueTopSumProperty drives the exact engine's bucket queue —
// which replaced its CELF heap — through random take / refresh
// sequences, with heavy gain ties, zero gains, absent (excluded) keys
// and keys filled in random order, reusing one queue across trials of
// different sizes and both forms of the top bucket. After every step it
// checks the top against the (gain descending, key ascending) maximum of
// the stored entries, and the top-L count walk against refTopSum over
// the stored gains.
func TestBucketQueueTopSumProperty(t *testing.T) {
	restoreBucketShift(t)
	r := rng.New(41)
	var q bucketQueue
	for trial := 0; trial < 300; trial++ {
		sparseBucketShift = bucketShifts[trial%len(bucketShifts)]
		keys := 1 + r.Intn(120)
		maxGain := 1 + r.Intn(6) // small ranges force ties
		if trial%4 == 0 {
			maxGain = 1 << 16
		}
		gain := make([]int, keys) // the model: stored gain per key, -1 when absent
		q.reset(keys)
		for _, key := range r.Perm(keys) {
			gain[key] = -1
			if r.Intn(5) == 0 {
				continue
			}
			gain[key] = r.Intn(maxGain + 1)
			q.add(int32(key), gain[key], 0)
		}
		q.settle()
		for step := int32(1); ; step++ {
			var gains []int64
			best := -1
			for key, g := range gain {
				if g < 0 {
					continue
				}
				gains = append(gains, int64(g))
				if best < 0 || g > gain[best] {
					best = key
				}
			}
			if q.size != len(gains) {
				t.Fatalf("trial %d step %d: size %d, model holds %d", trial, step, q.size, len(gains))
			}
			for _, l := range walkLengths(len(gains)) {
				if got, want := q.topSum(l), refTopSum(gains, l); got != want {
					t.Fatalf("trial %d step %d: topSum(%d) = %d, reference %d (gains %v)", trial, step, l, got, want, gains)
				}
			}
			if best < 0 {
				break
			}
			key := q.peek()
			if int(key) != best || q.top != gain[best] {
				t.Fatalf("trial %d step %d: top (%d, gain %d), want (%d, gain %d)", trial, step, key, q.top, best, gain[best])
			}
			switch g := r.Intn(q.top + 1); {
			case q.top == 0 || r.Intn(3) == 0:
				q.take()
				gain[key] = -1
			case g == q.top:
				q.iter[key] = step // refreshed without change: stays on top
			default:
				q.lower(g, step)
				gain[key] = g
			}
			if gain[key] >= 0 && q.iter[key] != step {
				t.Fatalf("trial %d step %d: key %d refreshed at round %d, want %d", trial, step, key, q.iter[key], step)
			}
		}
	}
}
