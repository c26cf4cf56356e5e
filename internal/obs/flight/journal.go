// Package flight is the black-box flight recorder of the observability
// stack: an always-on, bounded, zero-steady-state-alloc record of what a
// run was doing right before something went wrong. Where the live
// telemetry plane (obs/serve) answers "what is happening now", this
// package answers "what happened" after a stall, an OOM kill, or a
// panic, via four pieces:
//
//   - Journal / Recorder: fixed-capacity single-writer event rings
//     (journal.go) capturing the structured run events — run.start,
//     theta.update, round.done, bound.crossed, phase.done, run.done —
//     plus span open/close transitions.
//   - History: a periodic runtime/metrics sampler (history.go) turning
//     point-in-time scrapes into bounded time series (heap bytes, GC
//     pause, scheduler latency, goroutine count).
//   - Watchdog: a stall detector (watchdog.go) that fires when no
//     progress lands within a configurable window.
//   - WriteBundle: a versioned on-disk diagnostic-bundle writer
//     (bundle.go) that snapshots everything into one directory.
//
// Like internal/obs/timeline, the package imports only internal/obs/ring,
// so obs can embed it the same way it embeds the timeline. The glue that
// feeds it (span hooks, the run recorder obs.Run, bundle producers for
// the run report and Chrome trace) lives in obs.
//
// # Memory-ordering contract
//
// Each Recorder is one event stream with exactly one writing goroutine
// (the coordinator loop owns StreamRun; the watchdog owns StreamWatchdog;
// control-plane triggers own StreamControl), and the History has one
// sampler. Readers — the live /events endpoint and the bundle writer —
// snapshot concurrently and lock-free. Both stores encode their records
// as the payload words of an internal/obs/ring seqlock ring, whose
// package comment is the one description of the protocol; an export
// never emits a torn record. Emit is one label lookup plus one ring
// write of seven payload words, and allocates nothing in steady state:
// event labels (algorithm names, span names, phase names — a small
// recurring set) are interned into a copy-on-write table, so only the
// first sighting of a label allocates. A nil Journal and a nil Recorder are the disabled
// instruments: every method is a nil-safe no-op, extending the obs
// nil-tracer contract.
package flight

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"subsim/internal/obs/ring"
)

// Kind classifies one journal event. The numeric values are internal;
// exports use the stable dotted names (run.start, span.open, ...).
type Kind uint8

const (
	// KindNone is the zero Kind; it never appears in a snapshot.
	KindNone Kind = iota
	// KindRunStart is obs.StartRun: label=algorithm, A=n, B=m, F1=k,
	// F2=eps, F3=workers.
	KindRunStart
	// KindRoundDone is Run.Round: label=algorithm, A=round, B=theta,
	// F1=lower, F2=upper, F3=approx.
	KindRoundDone
	// KindBoundCrossed is Run.Crossed: label=algorithm, A=round,
	// F1=approx, F2=target.
	KindBoundCrossed
	// KindPhaseDone is Run.PhaseDone: label=phase, A=durationNS.
	KindPhaseDone
	// KindRunDone is Run.Done: label=algorithm, A=rounds, B=sets,
	// F1=influence, F2=elapsedNS.
	KindRunDone
	// KindSpanOpen is a tracer span opening: label=span name.
	KindSpanOpen
	// KindSpanClose is a tracer span closing: label=span name,
	// A=startNS of the span (the event time is the close time).
	KindSpanClose
	// KindTheta is a θ-budget update (Run.Theta): A=worst-case θ,
	// B=tightened θ, F1=the cap the run enforces.
	KindTheta
	// KindStall is a watchdog trip: label=context, A=idleNS.
	KindStall
	// KindBundle records that a diagnostic bundle was written:
	// label=reason.
	KindBundle

	numKinds
)

var kindNames = [numKinds]string{
	"none", "run.start", "round.done", "bound.crossed", "phase.done",
	"run.done", "span.open", "span.close", "theta.update",
	"watchdog.stall", "bundle.write",
}

// String returns the stable dotted event name used in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "none"
}

// MarshalText renders the dotted name, so journal JSON stays readable.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a dotted event name (unknown names map to
// KindNone).
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i := Kind(0); i < numKinds; i++ {
		if kindNames[i] == s {
			*k = i
			return nil
		}
	}
	*k = KindNone
	return nil
}

// Well-known journal streams. Each stream has exactly one writing
// goroutine; see the package comment's memory-ordering contract.
const (
	// StreamRun carries the coordinator-loop events: the obs.Run events
	// and span transitions.
	StreamRun = 0
	// StreamWatchdog carries stall events from the watchdog goroutine.
	StreamWatchdog = 1
	// StreamControl carries control-plane events (bundle writes from
	// signals, HTTP, or panic capture).
	StreamControl = 2
)

// DefaultCapacity is the per-stream ring capacity of every journal the
// tracer enables, and of New handed a non-positive one: 1024 events
// (64 B/slot → 64 KiB/stream) comfortably outlasts the doubling rounds
// of a long sampling run.
const DefaultCapacity = 1 << 10

// Event is one exported journal record. The A/B/F1/F2/F3 payload words
// are kind-specific; see the Kind constants for the per-kind meaning.
type Event struct {
	Stream int     `json:"stream"`
	Index  uint64  `json:"index"` // per-stream sequence number, from 0
	TimeNS int64   `json:"time_ns"`
	Kind   Kind    `json:"kind"`
	Label  string  `json:"label,omitempty"`
	A      int64   `json:"a,omitempty"`
	B      int64   `json:"b,omitempty"`
	F1     float64 `json:"f1,omitempty"`
	F2     float64 `json:"f2,omitempty"`
	F3     float64 `json:"f3,omitempty"`
}

// labelMap is one immutable generation of the interning table: readers
// Load and look up lock-free; inserts copy the whole map and publish the
// next generation with one Store.
type labelMap struct {
	byName map[string]uint32
	names  []string
}

// labelTable interns event labels so steady-state Emit never allocates:
// the label set of a run (algorithm names, span names, phases) is small
// and recurring, so after warm-up every lookup is one atomic load plus a
// map read on an immutable map.
type labelTable struct {
	mu  sync.Mutex
	cur atomic.Pointer[labelMap]
}

func newLabelTable() *labelTable {
	t := &labelTable{}
	t.cur.Store(&labelMap{byName: map[string]uint32{}, names: []string{""}})
	return t
}

// id returns the interned id for name, assigning one on first sighting.
// The empty label is id 0.
func (t *labelTable) id(name string) uint32 {
	if name == "" {
		return 0
	}
	if id, ok := t.cur.Load().byName[name]; ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.cur.Load()
	if id, ok := old.byName[name]; ok {
		return id
	}
	next := &labelMap{
		byName: make(map[string]uint32, len(old.byName)+1),
		names:  make([]string, len(old.names), len(old.names)+1),
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	copy(next.names, old.names)
	id := uint32(len(next.names))
	next.names = append(next.names, name)
	next.byName[name] = id
	t.cur.Store(next)
	return id
}

// name resolves an interned id ("" for unknown ids).
func (t *labelTable) name(id uint32) string {
	m := t.cur.Load()
	if int(id) < len(m.names) {
		return m.names[id]
	}
	return ""
}

// Recorder is one journal stream: a fixed-capacity event ring with
// exactly one writing goroutine. Obtain one from Journal.Stream. A nil
// Recorder is the disabled instrument — Emit and Now are allocation-free
// no-ops — extending the obs nil-tracer contract, and hot-path callers
// must nil-guard it (enforced by the subsimlint hotpath-alloc analyzer).
type Recorder struct {
	stream int
	clock  func() int64
	labels *labelTable
	// buf holds seven payload words per event: time, kind<<32 | label
	// id, a, b, and the bits of f1, f2, f3.
	buf *ring.Ring
}

// Stream returns the stream index the recorder writes (0 for nil).
func (r *Recorder) Stream() int {
	if r == nil {
		return 0
	}
	return r.stream
}

// Now reads the journal clock: nanoseconds since the journal epoch, or 0
// on a nil recorder. Lock-free.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock()
}

// Written returns the total number of events ever emitted (0 for nil).
func (r *Recorder) Written() uint64 {
	if r == nil {
		return 0
	}
	return r.buf.Written()
}

// Emit appends one event. Nil-safe, wait-free for the single writer, and
// allocation-free once the label has been seen before: a full ring
// overwrites the oldest event (the drop is accounted in Snapshot), never
// blocks. The payload words a/b/f1/f2/f3 are kind-specific; see Kind.
func (r *Recorder) Emit(k Kind, label string, a, b int64, f1, f2, f3 float64) {
	if r == nil {
		return
	}
	meta := uint64(k)<<32 | uint64(r.labels.id(label))
	r.buf.Write(uint64(r.clock()), meta, uint64(a), uint64(b), floatBits(f1), floatBits(f2), floatBits(f3))
}

// Journal owns one Recorder per event stream over a shared lock-free
// clock and label table. Construct with New (typically through
// obs.Tracer.EnableFlight); a nil *Journal is the disabled instrument —
// every method is a nil-safe no-op and Stream hands out nil Recorders.
type Journal struct {
	capacity int
	clock    func() int64
	labels   *labelTable
	streams  ring.Vector[Recorder]
}

// New returns a journal whose per-stream rings hold capacityPerStream
// events (rounded up to a power of two; non-positive means
// DefaultCapacity). clock supplies nanosecond timestamps and must be
// safe for concurrent use; nil installs ring.WallClock. Tests inject a
// fake clock for byte-stable golden exports.
func New(capacityPerStream int, clock func() int64) *Journal {
	if clock == nil {
		clock = ring.WallClock()
	}
	return &Journal{
		capacity: ring.Capacity(capacityPerStream, DefaultCapacity),
		clock:    clock,
		labels:   newLabelTable(),
	}
}

// Now reads the journal clock (0 on a nil journal).
func (j *Journal) Now() int64 {
	if j == nil {
		return 0
	}
	return j.clock()
}

// Capacity returns the per-stream ring capacity (0 on nil).
func (j *Journal) Capacity() int {
	if j == nil {
		return 0
	}
	return j.capacity
}

// Stream returns stream i's recorder, creating it (and any lower-indexed
// streams) on first use. Returns nil — the disabled recorder — on a nil
// journal or a negative index. The fast path is one atomic load.
func (j *Journal) Stream(i int) *Recorder {
	if j == nil {
		return nil
	}
	return j.streams.At(i, j.newRecorder)
}

func (j *Journal) newRecorder(i int) *Recorder {
	return &Recorder{stream: i, clock: j.clock, labels: j.labels, buf: ring.New(j.capacity, 7)}
}

// Written sums the events ever emitted across all streams (0 on nil) —
// a cheap progress signal for the stall watchdog.
func (j *Journal) Written() uint64 {
	if j == nil {
		return 0
	}
	var total uint64
	for _, r := range j.streams.Load() {
		total += r.Written()
	}
	return total
}

// Snapshot is a consistent-enough point-in-time view of the journal:
// every readable event across all streams, sorted by time (then stream,
// then index) so exports are deterministic for a deterministic clock.
type Snapshot struct {
	// Streams is the number of streams at snapshot time.
	Streams int `json:"streams"`
	// Written is the total number of events ever emitted.
	Written int64 `json:"written"`
	// Dropped counts events lost to ring wraparound plus events skipped
	// because a writer overlapped the export read.
	Dropped int64 `json:"dropped"`
	// Events are the readable events, ascending by TimeNS.
	Events []Event `json:"events"`
}

// Snapshot walks every stream lock-free and returns the merged, sorted
// event view. Safe to call at any time, including concurrently with
// active writers; returns a zero Snapshot on a nil journal.
func (j *Journal) Snapshot() Snapshot {
	var snap Snapshot
	if j == nil {
		return snap
	}
	streams := j.streams.Load()
	if len(streams) == 0 {
		return snap
	}
	snap.Streams = len(streams)
	snap.Events = make([]Event, 0, len(streams)*j.capacity)
	for _, r := range streams {
		written, dropped := r.buf.Read(func(i uint64, p []uint64) {
			snap.Events = append(snap.Events, Event{
				Stream: r.stream,
				Index:  i,
				TimeNS: int64(p[0]),
				Kind:   Kind(p[1] >> 32),
				Label:  r.labels.name(uint32(p[1])),
				A:      int64(p[2]),
				B:      int64(p[3]),
				F1:     bitsFloat(p[4]),
				F2:     bitsFloat(p[5]),
				F3:     bitsFloat(p[6]),
			})
		})
		snap.Written += int64(written)
		snap.Dropped += dropped
	}
	sort.SliceStable(snap.Events, func(a, b int) bool {
		x, y := snap.Events[a], snap.Events[b]
		if x.TimeNS != y.TimeNS {
			return x.TimeNS < y.TimeNS
		}
		if x.Stream != y.Stream {
			return x.Stream < y.Stream
		}
		return x.Index < y.Index
	})
	return snap
}

// JournalSchema / JournalVersion identify the journal JSON document
// written into diagnostic bundles and served by GET /events.
const (
	JournalSchema  = "subsim.flight-journal"
	JournalVersion = 1
)

// journalDoc is the schema envelope around a Snapshot.
type journalDoc struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Snapshot
}

// WriteJSON writes the schema-versioned journal document (a Snapshot
// wrapped in {schema, version}) as indented JSON. Nil journals write an
// empty, still-valid document, so bundle producers need no nil checks.
func (j *Journal) WriteJSON(w io.Writer) error {
	doc := journalDoc{Schema: JournalSchema, Version: JournalVersion, Snapshot: j.Snapshot()}
	if doc.Events == nil {
		doc.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
