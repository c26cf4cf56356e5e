// Package atomicmix is the golden fixture for the atomic-mix analyzer:
// once a struct field is accessed through sync/atomic anywhere in the
// package, every other access must stay atomic. Both field families are
// exercised — legacy function-style atomics (&f into atomic.AddUint64)
// and type-style atomics (atomic.Int64 / atomic.Pointer fields) — plus
// the constructor exemption and the //lint:allow atomic waiver. The Span
// section is copied from the real obs.Span COW contract and seeds the
// regression that motivated the analyzer: a plain read of endNS.
package atomicmix

import "sync/atomic"

// ring mirrors the seqlock interval ring: cursor is advanced with
// atomic.AddUint64, making it a function-style atomic field.
type ring struct {
	cursor uint64
	buf    []int64
}

// newRing initialises cursor plainly: constructors run before the value
// is published, so no finding.
func newRing(n int) *ring {
	r := &ring{buf: make([]int64, n)}
	r.cursor = 0
	return r
}

// push is the disciplined writer: every cursor access goes through
// sync/atomic. No findings.
func (r *ring) push(v int64) {
	i := atomic.AddUint64(&r.cursor, 1) - 1
	r.buf[i%uint64(len(r.buf))] = v
}

// written reads cursor plainly: flagged.
func (r *ring) written() uint64 {
	return r.cursor // want `plain read of atomic field "cursor"`
}

// reset writes cursor plainly: flagged.
func (r *ring) reset() {
	r.cursor = 0 // want `plain write of atomic field "cursor"`
}

// bump increments cursor plainly: flagged.
func (r *ring) bump() {
	r.cursor++ // want `plain \+\+ of atomic field "cursor"`
}

// escape leaks the address of cursor to non-atomic code: flagged.
func (r *ring) escape() *uint64 {
	return &r.cursor // want `address of atomic field "cursor" escapes`
}

// drainQuiesced reads cursor plainly after the workers have joined — a
// single-goroutine phase the type system cannot see, so it is waived.
func (r *ring) drainQuiesced() uint64 {
	//lint:allow atomic single-goroutine teardown after workers joined
	return r.cursor
}

// Span is copied from the real obs.Span live-read contract: name and
// startNS are immutable after publication, endNS is an atomic the
// writer Stores once and concurrent readers Load, attrs is an
// atomic.Pointer published copy-on-write.
type Span struct {
	name    string
	startNS int64
	endNS   atomic.Int64
	attrs   atomic.Pointer[[]string]
}

// End and EndNS are the disciplined accessors: method calls on the
// atomic-typed fields. No findings.
func (s *Span) End(now int64) {
	s.endNS.CompareAndSwap(0, now)
}

func (s *Span) EndNS() int64 {
	return s.endNS.Load()
}

// Attrs loads the COW slice; taking the field's address for a helper
// that uses the atomic API is legal too. No findings.
func (s *Span) Attrs() []string {
	p := s.attrs.Load()
	if p == nil {
		return nil
	}
	_ = &s.attrs
	return *p
}

// durationRacy is the seeded regression: a plain read of endNS copies
// the atomic by value, skipping the acquire Load the live telemetry
// readers rely on. go vet's copylocks check flags the same copy.
func (s *Span) durationRacy() int64 {
	end := s.endNS // want `plain read of atomic-typed field "endNS"`
	return end.Load() - s.startNS
}

// resetRacy assigns over the atomic field, resetting the generation out
// from under concurrent readers: flagged.
func (s *Span) resetRacy() {
	s.endNS = atomic.Int64{} // want `assignment over atomic-typed field "endNS"`
}

// hist exercises the array-of-atomics shape of the real obs.Histogram.
type hist struct {
	buckets [4]atomic.Int64
}

// total ranges by index and calls methods on elements: the legal
// access pattern, including the builtin len read. No findings.
func (h *hist) total() int64 {
	var t int64
	for i := range h.buckets {
		t += h.buckets[i].Load()
	}
	_ = len(h.buckets)
	return t
}

// totalRacy ranges by value, copying each atomic element outside its
// API (go vet's copylocks check flags the per-iteration copy too).
func (h *hist) totalRacy() int64 {
	var t int64
	for _, b := range h.buckets { // want `ranging over atomic field "buckets" by value`
		t += b.Load()
	}
	return t
}
