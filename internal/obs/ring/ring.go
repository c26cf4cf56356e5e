// Package ring is the single-writer seqlock ring behind the execution
// timeline's per-worker rings (internal/obs/timeline), its one store.
// The timeline encodes one record as a fixed number of uint64 payload
// words and decodes them on export; this package owns the concurrency
// contract that lets exports read while writers write, the
// grow-on-demand per-writer Vector the timeline hands its rings out of
// (and MetricSet its per-worker counters), the power-of-two capacity
// rule, and the default wall clock. It imports no other subsim package.
//
// # Memory-ordering contract (single writer, seqlock export)
//
// A Ring has exactly one writing goroutine at a time; any number of
// readers copy it concurrently and lock-free. Each slot is 1+w atomic
// words, word 0 the sequence number and words 1..w the payload. Per
// record:
//
//   - the writer loads its cursor n (only it ever stores the cursor),
//     picks slot n&mask, stores seq = 2n+1 (odd: "being written"),
//     stores the w payload words, stores seq = 2(n+1) (even: "record n
//     committed"), and finally publishes cursor = n+1;
//   - a reader loads the cursor, walks the last min(cursor, capacity)
//     records, and copies record i's payload only when the slot's seq
//     equals 2(i+1) both before and after the copy. A mismatch means the
//     writer lapped the reader mid-read: the record is counted as
//     dropped and never emitted torn. Records overwritten by wraparound
//     count as dropped too.
//
// Every word is accessed atomically, so the scheme is clean under the
// race detector, and a write costs w+4 uncontended atomic operations
// and no allocation: cheap enough for the per-RR-set generation path.
package ring

import (
	"sync"
	"sync/atomic"
	"time"
)

// Ring is a fixed-capacity ring of fixed-width records. A full ring
// overwrites its oldest record; the writer never blocks.
type Ring struct {
	mask   uint64
	stride int // 1 + payload width: the seq word, then the payload
	words  []atomic.Uint64
	cursor atomic.Uint64 // total records ever written
}

// Capacity returns n rounded up to a power of two, or def rounded up
// when n is not positive.
func Capacity(n, def int) int {
	if n <= 0 {
		n = def
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// New returns an empty ring of capacity records (rounded up to a power
// of two) of width payload words each.
func New(capacity, width int) *Ring {
	capacity = Capacity(capacity, 1)
	return &Ring{
		mask:   uint64(capacity - 1),
		stride: 1 + width,
		words:  make([]atomic.Uint64, capacity*(1+width)),
	}
}

// Cap returns the number of records the ring holds.
func (r *Ring) Cap() int { return int(r.mask) + 1 }

// Written returns the total number of records ever written.
func (r *Ring) Written() uint64 { return r.cursor.Load() }

// Write appends one record whose payload is the ring's width words.
// Only the ring's single writer may call it.
func (r *Ring) Write(payload ...uint64) {
	n := r.cursor.Load()
	slot := r.words[int(n&r.mask)*r.stride:]
	slot[0].Store(2*n + 1) // odd: slot under construction
	for i, w := range payload {
		slot[1+i].Store(w)
	}
	slot[0].Store(2 * (n + 1)) // even: record n committed
	r.cursor.Store(n + 1)
}

// Read calls fn, oldest first, for every record still readable, with the
// record's index (0 for the first record ever written) and a copy of its
// payload that fn must not retain. It returns the cursor it read up to
// and how many of those records it could not return: overwritten by
// wraparound, or lapped by the writer mid-copy. Read may run
// concurrently with the writer.
func (r *Ring) Read(fn func(index uint64, payload []uint64)) (written uint64, dropped int64) {
	n := r.cursor.Load()
	lo := uint64(0)
	if c := uint64(r.Cap()); n > c {
		lo = n - c
		dropped = int64(lo)
	}
	payload := make([]uint64, r.stride-1)
	for i := lo; i < n; i++ {
		slot := r.words[int(i&r.mask)*r.stride:][:r.stride]
		want := 2 * (i + 1)
		if slot[0].Load() != want {
			dropped++
			continue
		}
		for k := range payload {
			payload[k] = slot[1+k].Load()
		}
		if slot[0].Load() != want { // the writer lapped us mid-copy: torn
			dropped++
			continue
		}
		fn(i, payload)
	}
	return n, dropped
}

// Vector is a grow-on-demand vector of per-writer values: one ring per
// worker or stream, or one counter per worker. Lookups and Load are one
// atomic load; growth takes the mutex and publishes the grown slice
// copy-on-write, so readers never lock and never see a half-built
// vector. The zero value is an empty vector.
type Vector[T any] struct {
	mu  sync.Mutex
	cur atomic.Pointer[[]*T]
}

// Load returns the current elements. The slice is shared: callers must
// not modify it.
func (v *Vector[T]) Load() []*T {
	if p := v.cur.Load(); p != nil {
		return *p
	}
	return nil
}

// At returns element i, first creating it and every missing lower index
// j with mk(j). It returns nil for a negative i.
func (v *Vector[T]) At(i int, mk func(i int) *T) *T {
	if i < 0 {
		return nil
	}
	if cur := v.Load(); i < len(cur) {
		return cur[i]
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.Load()
	if i < len(cur) {
		return cur[i]
	}
	next := make([]*T, i+1)
	copy(next, cur)
	for j := len(cur); j <= i; j++ {
		next[j] = mk(j)
	}
	v.cur.Store(&next)
	return next[i]
}

// WallClock returns the default store clock: monotonic nanoseconds since
// the moment of the call, readable concurrently without locks.
func WallClock() func() int64 {
	epoch := time.Now()
	return func() int64 { return int64(time.Since(epoch)) }
}
