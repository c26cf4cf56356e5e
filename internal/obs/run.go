package obs

import (
	"context"
	"io"
	"log/slog"
	"time"

	"subsim/internal/obs/flight"
)

// NewLoggerWriter builds a run-event logger writing to w in the given
// format: "json" for slog's JSONHandler, anything else for the
// TextHandler. Returns nil — no log output — for a nil writer.
func NewLoggerWriter(w io.Writer, format string) *slog.Logger {
	if w == nil {
		return nil
	}
	if format == "json" {
		return slog.New(slog.NewJSONHandler(w, nil))
	}
	return slog.New(slog.NewTextHandler(w, nil))
}

// RunParams are the inputs of one run (graph nodes N and edges M),
// recorded by its run.start event.
type RunParams struct {
	N       int
	M       int64
	K       int
	Eps     float64
	Seed    uint64
	Workers int
}

// RoundRecord is one counted round: its number within the phase (the N
// of its round-N span), θ (the RR sets it selected over), the Equation
// 1 lower and Equation 2 upper bounds as of the round (0 where the
// algorithm does not certify one) and Approx = Lower/Upper.
type RoundRecord struct {
	Round                int
	Theta                int64
	Lower, Upper, Approx float64
}

// Run records one algorithm run and is the only way an algorithm
// reports. It owns the root span and the run's wall clock, and each run
// event is one method that writes every sink the event has: span
// attributes, MetricSet gauges, one slog record named after the event's
// journal kind, and one event on the tracer's StreamRun journal stream.
// The event schema (DESIGN.md "Structured log events") lives in this
// file alone.
//
// Keep the Run that StartRun returns as a local value on the run's
// coordinator goroutine (the single writer of its spans and journal
// stream): with a nil tracer and a nil logger no method allocates, and
// the clock is read only for the Elapsed that Done returns.
type Run struct {
	alg    string
	start  time.Time
	tracer *Tracer
	root   *Span
	log    *slog.Logger
	rec    *flight.Recorder
	saved  int64 // θ budget credited to theta_saved_total so far

	phase      *Span // the phase opened by Phase
	phaseName  string
	phaseStart time.Time // read only when a log or journal sink is attached
}

// StartRun opens the root span of a run of alg and reports run.start.
// t and log may each be nil.
func StartRun(t *Tracer, log *slog.Logger, alg string, p RunParams) Run {
	r := Run{alg: alg, start: time.Now(), tracer: t, root: t.Span(alg), log: log, rec: t.flightRecorder()}
	r.rec.Emit(flight.KindRunStart, alg, int64(p.N), p.M, float64(p.K), p.Eps, float64(p.Workers))
	r.info(flight.KindRunStart, slog.String("alg", alg), slog.Int("graph_n", p.N),
		slog.Int64("graph_m", p.M), slog.Int("k", p.K), slog.Float64("eps", p.Eps),
		slog.Uint64("seed", p.Seed), slog.Int("workers", p.Workers))
	return r
}

// Span returns the root span (nil without a tracer), the parent of the
// run's phase and round spans.
func (r *Run) Span() *Span { return r.root }

// Theta reports the RR sample budgets: the worst-case and tightened θ
// (the theta gauges) and the cap the run enforces. A cap below the
// worst case credits the difference to theta_saved_total; a later call
// with a lower cap credits only the further reduction.
func (r *Run) Theta(worst, tight, cap int64) {
	m := r.tracer.Metrics()
	m.SetTheta(worst, tight)
	if d := worst - cap - r.saved; d > 0 {
		m.AddThetaSaved(d)
		r.saved += d
	}
	r.rec.Emit(flight.KindTheta, "", worst, tight, float64(cap), 0, 0)
}

// Round reports one counted round: θ on the round span, plus approx
// where the algorithm certifies an upper bound; the bound gauges; and
// round.done, which names the open phase while one opened by Phase is
// open (round numbers restart in each phase).
func (r *Run) Round(span *Span, rec RoundRecord) {
	span.SetInt("theta", rec.Theta)
	if rec.Upper > 0 {
		span.SetFloat("approx", rec.Approx)
	}
	r.tracer.Metrics().SetBounds(rec.Round, rec.Lower, rec.Upper, rec.Approx)
	r.rec.Emit(flight.KindRoundDone, r.alg, int64(rec.Round), rec.Theta, rec.Lower, rec.Upper, rec.Approx)
	attrs := [...]slog.Attr{slog.String("alg", r.alg), slog.Int("round", rec.Round),
		slog.Int64("theta", rec.Theta), slog.Float64("lower", rec.Lower),
		slog.Float64("upper", rec.Upper), slog.Float64("approx", rec.Approx),
		slog.String("phase", r.phaseName)}
	n := len(attrs)
	if r.phaseName == "" {
		n-- // a run without phases keeps the original key set
	}
	r.info(flight.KindRoundDone, attrs[:n]...)
}

// Crossed reports the stopping event: at round the certified ratio
// approx cleared target.
func (r *Run) Crossed(round int, approx, target float64) {
	r.rec.Emit(flight.KindBoundCrossed, r.alg, int64(round), 0, approx, target, 0)
	r.info(flight.KindBoundCrossed, slog.String("alg", r.alg), slog.Int("round", round),
		slog.Float64("approx", approx), slog.Float64("target", target))
}

// Phase opens a named phase span under the root (HIST's sentinel and
// residual phases) and starts its clock; PhaseDone closes it.
func (r *Run) Phase(name string) *Span {
	r.phase, r.phaseName = r.root.Child(name), name
	if r.log != nil || r.rec != nil {
		r.phaseStart = time.Now()
	}
	return r.phase
}

// PhaseDone ends the phase opened by Phase, reports phase.done with its
// wall time, and clears the phase name, so later rounds carry none.
func (r *Run) PhaseDone() {
	r.phase.End()
	name := r.phaseName
	r.phaseName = ""
	if r.log == nil && r.rec == nil {
		return
	}
	ns := time.Since(r.phaseStart).Nanoseconds()
	r.rec.Emit(flight.KindPhaseDone, name, ns, 0, 0, 0, 0)
	r.info(flight.KindPhaseDone, slog.String("alg", r.alg), slog.String("phase", name),
		slog.Int64("elapsed_ns", ns))
}

// Done closes the root span, reports run.done, and returns the wall
// time since StartRun with the tracer's report (nil without a tracer).
func (r *Run) Done(rounds int, sets int64, influence float64) (time.Duration, *Report) {
	r.root.SetInt("rounds", int64(rounds)).End()
	elapsed := time.Since(r.start)
	ns := elapsed.Nanoseconds()
	r.rec.Emit(flight.KindRunDone, r.alg, int64(rounds), sets, influence, float64(ns), 0)
	r.info(flight.KindRunDone, slog.String("alg", r.alg), slog.Int("rounds", rounds),
		slog.Int64("sets", sets), slog.Float64("influence", influence), slog.Int64("elapsed_ns", ns))
	return elapsed, r.tracer.Report()
}

// info writes one Info record named after the event's journal kind, or
// nothing without a logger.
func (r *Run) info(k flight.Kind, attrs ...slog.Attr) {
	if r.log != nil {
		r.log.LogAttrs(context.Background(), slog.LevelInfo, k.String(), attrs...)
	}
}
