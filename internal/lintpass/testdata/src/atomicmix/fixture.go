// Package atomicmix is the golden fixture for the atomic-mix analyzer:
// sync/atomic functions are banned outright, and a field declared with
// a sync/atomic type (atomic.Int64 / atomic.Pointer) is accessed only
// through its methods, with the constructor exemption and the
// //lint:allow atomic waiver. The Span section is copied from the real
// obs.Span COW contract and seeds the regression that motivated the
// analyzer: a plain read of endNS.
package atomicmix

import "sync/atomic"

// ring advances a plain uint64 cursor through a sync/atomic function:
// nothing would stop a later plain access to cursor, so the call itself
// is flagged.
type ring struct {
	cursor uint64
	buf    []int64
}

func (r *ring) push(v int64) {
	i := atomic.AddUint64(&r.cursor, 1) - 1 // want `call to sync/atomic function AddUint64`
	r.buf[i%uint64(len(r.buf))] = v
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

// reuseQuiesced resets endNS once every reader has gone — a
// single-goroutine phase the type system cannot see, so it is waived.
func (s *Span) reuseQuiesced() {
	//lint:allow atomic single-goroutine reuse after every reader released the span
	s.endNS = atomic.Int64{}
}

// newSpan initialises endNS plainly: constructors run before the value
// is published, so no finding.
func newSpan(name string, start int64) *Span {
	s := &Span{name: name, startNS: start}
	s.endNS = atomic.Int64{}
	return s
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
