package coverage

import (
	"math/bits"
	"slices"
)

// sparseBucketShift sets how the top bucket is put in key order: one of
// at most n>>sparseBucketShift keys is sorted into the active buffer,
// and a larger one is marked in a bitmap over the n keys and read back
// word by word. Reading the bitmap costs up to n/64 word loads, so it is
// kept to buckets where that is at most four loads per key (at the
// default), and the active buffer needs only n>>sparseBucketShift
// slots. A var so tests can force either form.
var sparseBucketShift = 8

// bucketQueue is the exact engine's lazy-greedy priority queue: a bucket
// queue over integer stored gains. Keys are dense ids in [0, n) — node
// ids, or under the Revised tie-break the node's rank by (out-degree
// descending, id ascending) — and entries are ordered by stored gain
// descending, then key ascending: the total order of the sketch
// backend's celfHeap, so the exact engine picks, refreshes and bounds
// exactly as a heap in that order would.
//
// Each gain g below the top has an unsorted singly linked bucket list
// (head[g], next[key]) and a count. The top bucket is gathered when it
// becomes the top, into key order: sorted into the active buffer when it
// holds few keys, marked in the dense bitmap when it holds many (the
// early doubling rounds, for one, reach a zero-gain bucket of nearly
// every node). While it is the top nothing can enter it: stored gains
// only fall (a refreshed marginal never exceeds the stored one, by
// submodularity), and every other bucket lies below it. So only its
// smallest key is ever refreshed, a refresh that lowers the gain is an
// O(1) move to a lower bucket, and the top only moves down, which bounds
// every walk below it by the largest stored gain.
//
// The per-key arrays (next, iter, and the bitmap's bit per key) are
// sized n once per estimator. The per-gain arrays hold the largest
// stored gain of the run, which is at most the number of RR sets (every
// set holds at least one node), and grow geometrically.
type bucketQueue struct {
	next []int32 // per key: next key of its bucket list, -1 at the end
	iter []int32 // per key: selection round its stored gain was computed in

	// The top bucket's keys not yet taken or moved out: active[pos:],
	// ascending, or the set bits of dense from word on when inDense.
	inDense   bool
	active    []int32
	pos       int
	dense     []uint64
	word      int
	sparseMax int // the most keys a top bucket may hold in active

	head  []int32 // per gain: first key of the bucket list, -1 when empty (and for the gathered top)
	count []int32 // per gain: keys stored at that gain, the top bucket's included

	top  int // the top bucket's gain; while filling, the largest gain so far
	size int // keys stored
}

// reset empties the queue for a run over n keys. The per-gain arrays are
// re-initialised lazily as add raises the largest gain.
func (q *bucketQueue) reset(n int) {
	if len(q.next) < n {
		q.next = make([]int32, n)
		q.iter = make([]int32, n)
		q.dense = make([]uint64, (n+63)/64)
	}
	q.sparseMax = n >> sparseBucketShift
	if cap(q.active) < q.sparseMax {
		q.active = make([]int32, 0, q.sparseMax)
	}
	clear(q.dense) // the last run may have stopped inside a dense top bucket
	q.active, q.pos = q.active[:0], 0
	q.top, q.size = -1, 0
}

// add stores key at gain g, fresh as of round iter. During selection g
// is below the top bucket.
//
//subsim:hotpath
func (q *bucketQueue) add(key int32, g int, iter int32) {
	if g > q.top {
		q.raise(g)
	}
	q.iter[key] = iter
	q.next[key] = q.head[g]
	q.head[g] = key
	q.count[g]++
	q.size++
}

// raise initialises the empty buckets above the fill's largest gain so
// far up to g, growing the per-gain arrays geometrically.
func (q *bucketQueue) raise(g int) {
	if g >= len(q.head) {
		c := max(2*len(q.head), g+1)
		head, count := make([]int32, c), make([]int32, c)
		copy(head, q.head[:q.top+1])
		copy(count, q.count[:q.top+1])
		q.head, q.count = head, count
	}
	for b := q.top + 1; b <= g; b++ {
		q.head[b], q.count[b] = -1, 0
	}
	q.top = g
}

// settle gathers the top bucket once the previous top's keys have all
// been taken or moved out: the highest non-empty bucket, into key order.
//
//subsim:hotpath
func (q *bucketQueue) settle() {
	if q.size == 0 || (q.count[q.top] > 0 && q.head[q.top] < 0) {
		return // empty, or the gathered top still holds keys
	}
	g := q.top
	for q.count[g] == 0 {
		g--
	}
	q.top = g
	key := q.head[g]
	q.head[g] = -1
	c := int(q.count[g])
	if q.inDense = c > q.sparseMax; q.inDense {
		q.word = len(q.dense)
		for ; key >= 0; key = q.next[key] {
			q.dense[key>>6] |= 1 << (key & 63)
			q.word = min(q.word, int(key>>6))
		}
		return
	}
	a := q.active[:c]
	for i := range a {
		a[i] = key
		key = q.next[key]
	}
	slices.Sort(a)
	q.active, q.pos = a, 0
}

// peek returns the top key; the queue must not be empty.
//
//subsim:hotpath
func (q *bucketQueue) peek() int32 {
	if !q.inDense {
		return q.active[q.pos]
	}
	for q.dense[q.word] == 0 {
		q.word++
	}
	return int32(q.word<<6 + bits.TrailingZeros64(q.dense[q.word]))
}

// pop removes the top key from the top bucket and returns it, leaving
// the bucket possibly used up.
//
//subsim:hotpath
func (q *bucketQueue) pop() int32 {
	key := q.peek()
	if q.inDense {
		q.dense[key>>6] &^= 1 << (key & 63)
	} else {
		q.pos++
	}
	q.count[q.top]--
	q.size--
	return key
}

// take removes the top key and returns it.
func (q *bucketQueue) take() int32 {
	key := q.pop()
	q.settle()
	return key
}

// lower moves the top key, refreshed in round iter, to the lower gain g.
// The key re-enters its new bucket before the next top is settled, as
// that bucket may be the highest non-empty one.
func (q *bucketQueue) lower(g int, iter int32) {
	q.add(q.pop(), g, iter)
	q.settle()
}

// topSum returns the sum of the l largest positive stored gains — the
// top-L term of the Λᵘ prefix bound — by walking the bucket counts from
// the top gain down.
//
//subsim:hotpath
func (q *bucketQueue) topSum(l int) int64 {
	var sum int64
	for g := q.top; g > 0 && l > 0; g-- {
		c := min(int(q.count[g]), l)
		sum += int64(g) * int64(c)
		l -= c
	}
	return sum
}
