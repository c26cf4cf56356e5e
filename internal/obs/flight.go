package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"subsim/internal/obs/flight"
	"subsim/internal/obs/timeline"
)

// FlightConfig configures Tracer.EnableFlight. The zero value is a
// usable default: bundles land in the current directory, the sampler
// runs at 250 ms, and the watchdog stays off until a window is set.
type FlightConfig struct {
	// Dir is where diagnostic bundles are written ("" = current
	// directory). Bundle directories are named *.bundle (gitignored).
	Dir string
	// Tool names the producing binary in bundle manifests.
	Tool string
	// SampleEvery is the runtime-metrics sampling cadence (0 = 250 ms;
	// negative disables the sampler goroutine).
	SampleEvery time.Duration
	// StallWindow arms the watchdog: a bundle is written when no
	// progress (journal events or RR sets) lands within the window while
	// a span is open. Non-positive leaves the watchdog off.
	StallWindow time.Duration
	// OnBundle, when non-nil, is called after every bundle write attempt
	// with the bundle path (empty on failure) and the trigger reason.
	OnBundle func(path, reason string, err error)
}

// Flight is a tracer's attached flight recorder: the black-box journal,
// the runtime-metrics history, the stall watchdog, and the diagnostic
// bundle writer, assembled over the leaf internal/obs/flight package the
// same way the tracer embeds the execution timeline. Obtain one with
// Tracer.EnableFlight; a nil *Flight is the disabled instrument — every
// method is a nil-safe no-op and WriteBundle reports ErrFlightDisabled.
type Flight struct {
	tracer   *Tracer
	cfg      FlightConfig
	journal  *flight.Journal
	history  *flight.History
	sampler  *flight.Sampler
	watchdog *flight.Watchdog

	// writeMu serialises bundle writes; it also makes this mutex's
	// holder the single writer of the journal's control stream.
	writeMu sync.Mutex
	closed  bool
}

// ErrFlightDisabled is returned by WriteBundle on a nil Flight.
var ErrFlightDisabled = errors.New("obs: flight recorder not enabled")

// EnableFlight attaches a flight recorder to the tracer: journal hooks
// on span open/close and on the events of every Run started on the
// tracer afterwards, a runtime-metrics sampler goroutine, and (when
// cfg.StallWindow > 0) a stall watchdog that writes a diagnostic bundle
// when an active phase stops making progress. The journal
// (flight.DefaultCapacity events per stream) and the history
// (flight.DefaultHistoryCapacity samples) share the tracer's *current*
// clock (captured by value, like EnableTimeline), so fake clocks
// installed via SetClock flow through to journal events.
// Idempotent: a second call returns the existing recorder. Returns nil on
// a nil tracer, keeping the nil-tracer contract.
func (t *Tracer) EnableFlight(cfg FlightConfig) *Flight {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.flight != nil {
		f := t.flight
		t.mu.Unlock()
		return f
	}
	clock := t.clock
	f := &Flight{
		tracer:  t,
		cfg:     cfg,
		journal: flight.New(flight.DefaultCapacity, clock),
		history: flight.NewHistory(flight.DefaultHistoryCapacity, clock),
	}
	t.flight = f
	t.mu.Unlock()

	t.flightRec.Store(f.journal.Stream(flight.StreamRun))

	if cfg.SampleEvery >= 0 {
		f.sampler = f.history.StartSampler(cfg.SampleEvery)
	}
	if cfg.StallWindow > 0 {
		m := t.metrics
		j := f.journal
		stallRec := j.Stream(flight.StreamWatchdog)
		f.watchdog = flight.NewWatchdog(flight.WatchdogConfig{
			Window:   cfg.StallWindow,
			Clock:    clock,
			Progress: func() uint64 { return j.Written() + uint64(m.Sets.Load()) },
			Active:   t.hasOpenSpans,
			OnStall: func(idleNS int64) {
				stallRec.Emit(flight.KindStall, "", idleNS, 0, 0, 0, 0)
				// The bundle outcome is reported through cfg.OnBundle; a
				// failing write must not take the watchdog down.
				_, _ = f.writeBundle("stall", nil)
			},
		})
		f.watchdog.Start()
	}
	return f
}

// Flight returns the attached flight recorder, or nil when EnableFlight
// was never called (or the tracer is nil).
func (t *Tracer) Flight() *Flight {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flight
}

// FlightJournal returns the attached black-box journal (nil when no
// flight recorder is enabled), for journal-tail consumers such as the
// serve plane's /events endpoint.
func (t *Tracer) FlightJournal() *flight.Journal {
	return t.Flight().Journal()
}

// hasOpenSpans reports whether any root span is still open — the
// watchdog's "active phase" signal. Lock-free over the live span forest.
func (t *Tracer) hasOpenSpans() bool {
	if t == nil {
		return false
	}
	for _, s := range t.liveRoots() {
		if s.endNS.Load() == 0 {
			return true
		}
	}
	return false
}

// Journal returns the recorder's event journal (nil on a nil Flight).
func (f *Flight) Journal() *flight.Journal {
	if f == nil {
		return nil
	}
	return f.journal
}

// History returns the runtime-metrics history (nil on a nil Flight).
func (f *Flight) History() *flight.History {
	if f == nil {
		return nil
	}
	return f.history
}

// Watchdog returns the stall watchdog (nil on a nil Flight or when no
// stall window was configured).
func (f *Flight) Watchdog() *flight.Watchdog {
	if f == nil {
		return nil
	}
	return f.watchdog
}

// Close stops the recorder's background goroutines (sampler, watchdog).
// The journal keeps accepting events — the black box stays on until the
// process exits. Nil-safe and idempotent.
func (f *Flight) Close() {
	if f == nil {
		return
	}
	f.writeMu.Lock()
	closed := f.closed
	f.closed = true
	f.writeMu.Unlock()
	if closed {
		return
	}
	f.sampler.Stop()
	f.watchdog.Stop()
}

// flightSpansSchema versions the live-span-forest artifact inside
// bundles (the run report has its own schema; this file preserves the
// *live* view with Open flags, which a crash bundle wants verbatim).
const (
	flightSpansSchema  = "subsim.flight-spans"
	flightSpansVersion = 1
)

// WriteBundle snapshots everything the recorder knows into one versioned
// bundle directory under the configured Dir and returns its path: run
// report, live span forest, Chrome trace, Prometheus dump, event
// journal, metrics history, and goroutine + heap profiles, plus any
// extra producers (e.g. a panic report). Concurrent calls serialise;
// failures of individual artifacts are recorded in the manifest rather
// than aborting. Safe to call at any time, including mid-run and from
// signal or HTTP handlers.
func (f *Flight) WriteBundle(reason string, extra ...flight.Producer) (string, error) {
	if f == nil {
		return "", ErrFlightDisabled
	}
	return f.writeBundle(reason, extra)
}

func (f *Flight) writeBundle(reason string, extra []flight.Producer) (string, error) {
	f.writeMu.Lock()
	defer f.writeMu.Unlock()

	// Journal the trigger first so the bundle's own journal snapshot
	// records it. writeMu makes this goroutine the control stream's
	// single writer.
	f.journal.Stream(flight.StreamControl).Emit(flight.KindBundle, reason, 0, 0, 0, 0, 0)

	t := f.tracer
	producers := []flight.Producer{
		{Name: "report.json", Write: func(w io.Writer) error {
			return t.Report().WriteJSON(w)
		}},
		{Name: "spans.json", Write: func(w io.Writer) error {
			doc := struct {
				Schema  string          `json:"schema"`
				Version int             `json:"version"`
				Spans   []*SpanSnapshot `json:"spans"`
			}{flightSpansSchema, flightSpansVersion, t.LiveSpans()}
			if doc.Spans == nil {
				doc.Spans = []*SpanSnapshot{}
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}},
		{Name: "trace.json", Write: func(w io.Writer) error {
			return timeline.WriteTrace(w, t.Timeline().Snapshot(), FlattenSpans(t.LiveSpans()))
		}},
		{Name: "metrics.prom", Write: func(w io.Writer) error {
			return t.Metrics().WritePrometheus(w)
		}},
		{Name: "journal.json", Write: f.journal.WriteJSON},
		{Name: "history.json", Write: f.history.WriteJSON},
	}
	producers = append(producers, flight.ProfileProducers()...)
	producers = append(producers, extra...)

	path, err := flight.WriteBundle(f.cfg.Dir, f.cfg.Tool, reason, time.Now(), producers)
	if f.cfg.OnBundle != nil {
		f.cfg.OnBundle(path, reason, err)
	}
	return path, err
}

// CapturePanic writes a panic diagnostic bundle, then re-panics so the
// process still crashes with the original value. Use it as the first
// deferred call in main:
//
//	defer fl.CapturePanic()
//
// The bundle gains a panic.txt with the panic value and the stack at
// recovery. Nil-safe: a disabled recorder changes nothing about panic
// propagation (there is no recover on the nil path at all).
func (f *Flight) CapturePanic() {
	if f == nil {
		return
	}
	r := recover()
	if r == nil {
		return
	}
	stack := debug.Stack()
	_, _ = f.WriteBundle("panic", flight.Producer{
		Name: "panic.txt",
		Write: func(w io.Writer) error {
			if _, err := fmt.Fprintf(w, "panic: %v\n\n", r); err != nil {
				return err
			}
			_, err := w.Write(stack)
			return err
		},
	})
	panic(r)
}

// FlattenSpans walks a span forest depth-first into the flat phase-track
// shape the Chrome trace exporter takes. Nested spans become overlapping
// slices on the single phase track, which trace viewers render stacked.
// Shared by the serve plane's /trace endpoint and the bundle writer.
func FlattenSpans(roots []*SpanSnapshot) []timeline.Span {
	var out []timeline.Span
	var walk func(s *SpanSnapshot)
	walk = func(s *SpanSnapshot) {
		out = append(out, timeline.Span{
			Name:    s.Name,
			StartNS: s.StartNS,
			EndNS:   s.StartNS + s.DurationNS,
		})
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range roots {
		walk(s)
	}
	return out
}
