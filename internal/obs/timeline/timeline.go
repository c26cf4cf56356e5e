// Package timeline is the execution-timeline layer of the observability
// stack: a lock-free, fixed-capacity record of *when* each worker was
// busy and in which phase, complementing the cumulative busy-ns counters
// of obs.MetricSet (which say how much, never when). The records feed
// two exporters — a Chrome trace-event JSON document loadable in
// Perfetto / chrome://tracing (trace.go) and a compact per-phase
// utilization/imbalance summary folded into the run report (summary.go)
// — so serial gaps and load skew in the parallel RR pipeline become
// visible instead of inferred.
//
// # Memory-ordering contract
//
// Each worker owns one Ring and is its only writer; the export side
// (the live telemetry plane, the run report) reads concurrently and
// lock-free. A Ring encodes each interval as three payload words
// (phase, start, end) of an internal/obs/ring seqlock ring, whose
// package comment is the one description of the protocol: a Record
// costs seven uncontended atomic operations and zero allocations —
// cheap enough for the per-RR-set generation path — and an export
// never emits a torn record. Every method of Timeline and Ring is
// nil-safe, and the nil (disabled) path allocates nothing, per the
// nil-tracer contract.
package timeline

import (
	"fmt"
	"sort"

	"subsim/internal/obs/ring"
)

// Phase labels one timeline interval with the pipeline section that
// produced it.
type Phase uint8

const (
	// PhaseGenerate is one RR-set reverse traversal (recorded per set by
	// rrset.InstrumentWorker).
	PhaseGenerate Phase = iota
	// PhaseIndexBuild is one worker's share of a delta CSR rebuild in
	// coverage.Sharded (one interval per lane of a parallel rebuild, or
	// one for the whole serial rebuild).
	PhaseIndexBuild
	// PhaseGains is the first greedy round: the serial pass of
	// coverage.Sharded.SelectSeeds that fills its bucket queue with
	// every node's initial gain.
	PhaseGains
	// PhaseSelect is the serial lazy-greedy CELF loop (coordinator only).
	PhaseSelect
	// PhaseReduce is one worker's share of a fanned-out CELF round in the
	// sharded coverage engine: a per-shard partial marginal recompute or
	// covered-bit update whose partial aggregates are tree-reduced by the
	// coordinator (coverage.Sharded). These records are what make rounds
	// beyond the first visible as parallel in the timeline digest.
	PhaseReduce
	// PhaseOther is the catch-all for callers outside the known pipeline.
	PhaseOther

	numPhases
)

var phaseNames = [numPhases]string{
	"generate", "index-build", "select-gains", "select", "reduce", "other",
}

// String returns the stable lower-case phase name used in exports.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "other"
}

// MarshalText renders the phase name, so Record JSON stays readable.
func (p Phase) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a phase name (unknown names map to PhaseOther).
func (p *Phase) UnmarshalText(b []byte) error {
	s := string(b)
	for i := Phase(0); i < numPhases; i++ {
		if phaseNames[i] == s {
			*p = i
			return nil
		}
	}
	*p = PhaseOther
	return nil
}

// DefaultCapacity is the per-worker ring capacity of every timeline the
// tracer enables, and of New handed a non-positive one: 4096 records ≈
// the tail of a sampling round per worker at 32 B/slot.
const DefaultCapacity = 1 << 12

// Record is one exported timeline interval: worker w spent
// [StartNS, EndNS] (nanoseconds since the timeline clock's epoch) in
// the given phase.
type Record struct {
	Worker  int   `json:"worker"`
	Phase   Phase `json:"phase"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// Ring is one worker's fixed-capacity interval record. Exactly one
// goroutine may call Record at a time (the worker owning the ring);
// snapshot reads are lock-free and may run concurrently with the
// writer. A nil Ring is the disabled instrument: Record and Now are
// allocation-free no-ops.
type Ring struct {
	worker int
	clock  func() int64
	buf    *ring.Ring // payload: phase, start, end
}

// Worker returns the worker id the ring belongs to (0 for a nil ring).
func (r *Ring) Worker() int {
	if r == nil {
		return 0
	}
	return r.worker
}

// Now reads the timeline clock: nanoseconds since the timeline epoch,
// or 0 on a nil ring. Unlike the tracer's span clock this read takes no
// lock, so it is safe on the concurrent per-set worker path.
func (r *Ring) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock()
}

// Record appends one interval. Nil-safe, allocation-free, and wait-free
// for the single writer: a full ring overwrites the oldest record (the
// drop is accounted in Snapshot), never blocks.
func (r *Ring) Record(p Phase, startNS, endNS int64) {
	if r == nil {
		return
	}
	r.buf.Write(uint64(p), uint64(startNS), uint64(endNS))
}

// Written returns the total number of records ever written (0 for nil).
func (r *Ring) Written() uint64 {
	if r == nil {
		return 0
	}
	return r.buf.Written()
}

// Timeline owns one Ring per worker over a shared lock-free clock.
// Construct with New (typically through obs.Tracer.EnableTimeline); a
// nil *Timeline is the disabled instrument — every method is a nil-safe
// no-op, so instrumented code threads a disabled timeline through for
// free.
type Timeline struct {
	clock    func() int64
	capacity int
	rings    ring.Vector[Ring]
}

// New returns a timeline whose per-worker rings hold capacityPerWorker
// records (rounded up to a power of two; non-positive means
// DefaultCapacity). clock supplies nanosecond timestamps and must be
// safe for concurrent use; nil installs ring.WallClock. Tests inject a
// fake clock for byte-stable golden exports.
func New(capacityPerWorker int, clock func() int64) *Timeline {
	if clock == nil {
		clock = ring.WallClock()
	}
	return &Timeline{clock: clock, capacity: ring.Capacity(capacityPerWorker, DefaultCapacity)}
}

// Now reads the timeline clock (0 on a nil timeline).
func (tl *Timeline) Now() int64 {
	if tl == nil {
		return 0
	}
	return tl.clock()
}

// Capacity returns the per-worker ring capacity (0 on nil).
func (tl *Timeline) Capacity() int {
	if tl == nil {
		return 0
	}
	return tl.capacity
}

// Workers returns the number of worker rings created so far (0 on nil).
func (tl *Timeline) Workers() int {
	if tl == nil {
		return 0
	}
	return len(tl.rings.Load())
}

// Worker returns worker w's ring, creating it (and any lower-indexed
// rings) on first use. Returns nil — the disabled ring — on a nil
// timeline or a negative index. The fast path is one atomic load, so
// handing rings out during worker setup is cheap.
func (tl *Timeline) Worker(w int) *Ring {
	if tl == nil {
		return nil
	}
	return tl.rings.At(w, tl.newRing)
}

func (tl *Timeline) newRing(w int) *Ring {
	return &Ring{worker: w, clock: tl.clock, buf: ring.New(tl.capacity, 3)}
}

// Snapshot is a consistent-enough point-in-time view of the timeline:
// every readable record across all workers, sorted by start time (then
// worker, then end) so exports are deterministic for a deterministic
// clock.
type Snapshot struct {
	// Workers is the number of worker rings at snapshot time.
	Workers int `json:"workers"`
	// Written is the total number of records ever recorded.
	Written int64 `json:"written"`
	// Dropped counts records lost to ring wraparound plus records
	// skipped because the writer overlapped the export read.
	Dropped int64 `json:"dropped"`
	// Records are the readable intervals, ascending by StartNS.
	Records []Record `json:"records"`
}

// Snapshot walks every ring lock-free and returns the merged, sorted
// record view. Safe to call at any time, including concurrently with
// active writers; returns a zero Snapshot on a nil timeline.
func (tl *Timeline) Snapshot() Snapshot {
	var snap Snapshot
	if tl == nil {
		return snap
	}
	rings := tl.rings.Load()
	if len(rings) == 0 {
		return snap
	}
	snap.Workers = len(rings)
	snap.Records = make([]Record, 0, len(rings)*tl.capacity)
	for _, r := range rings {
		written, dropped := r.buf.Read(func(_ uint64, p []uint64) {
			snap.Records = append(snap.Records, Record{
				Worker:  r.worker,
				Phase:   Phase(p[0]),
				StartNS: int64(p[1]),
				EndNS:   int64(p[2]),
			})
		})
		snap.Written += int64(written)
		snap.Dropped += dropped
	}
	sort.SliceStable(snap.Records, func(i, j int) bool {
		a, b := snap.Records[i], snap.Records[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.EndNS < b.EndNS
	})
	return snap
}

// GoString aids test failure output.
func (rec Record) GoString() string {
	return fmt.Sprintf("timeline.Record{W%d %s [%d,%d]}", rec.Worker, rec.Phase, rec.StartNS, rec.EndNS)
}
