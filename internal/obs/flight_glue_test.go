package obs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"subsim/internal/obs/flight"
)

func TestFlightNilContract(t *testing.T) {
	var tr *Tracer
	if tr.EnableFlight(FlightConfig{}) != nil {
		t.Error("EnableFlight on a nil tracer must return nil")
	}
	if tr.Flight() != nil || tr.FlightJournal() != nil {
		t.Error("nil tracer must expose no flight recorder")
	}
	if tr.hasOpenSpans() {
		t.Error("nil tracer has no open spans")
	}

	var f *Flight
	f.Close()
	f.Close()
	if f.Journal() != nil || f.History() != nil || f.Watchdog() != nil {
		t.Error("nil Flight accessors must return nil instruments")
	}
	if _, err := f.WriteBundle("x"); !errors.Is(err, ErrFlightDisabled) {
		t.Errorf("nil WriteBundle error = %v, want ErrFlightDisabled", err)
	}

	// CapturePanic on the nil (disabled) recorder must not swallow the
	// panic: there is no recover on the nil path at all.
	propagated := func() (r any) {
		defer func() { r = recover() }()
		func() {
			defer f.CapturePanic()
			panic("must propagate")
		}()
		return nil
	}()
	if propagated != "must propagate" {
		t.Errorf("panic through nil CapturePanic = %v", propagated)
	}
}

func TestEnableFlightIdempotent(t *testing.T) {
	tr := NewTracer()
	f1 := tr.EnableFlight(FlightConfig{SampleEvery: -1})
	f2 := tr.EnableFlight(FlightConfig{SampleEvery: -1})
	defer f1.Close()
	if f1 == nil || f1 != f2 {
		t.Fatalf("EnableFlight not idempotent: %p vs %p", f1, f2)
	}
	if tr.Flight() != f1 || tr.FlightJournal() != f1.Journal() {
		t.Error("tracer accessors must return the attached recorder")
	}
}

// TestFlightJournalCapturesRunEvents drives every journal hook — span
// transitions and each obs.Run event — under a fake clock and checks the
// journal saw them all, once each and in order.
func TestFlightJournalCapturesRunEvents(t *testing.T) {
	tr := NewTracer()
	var tick atomic.Int64
	tr.SetClock(func() int64 { return tick.Add(10) })
	fl := tr.EnableFlight(FlightConfig{SampleEvery: -1})
	defer fl.Close()

	span := tr.Span("sampling")
	if !tr.hasOpenSpans() {
		t.Error("open root span must make hasOpenSpans true")
	}
	span.End()
	if tr.hasOpenSpans() {
		t.Error("hasOpenSpans must drop after End")
	}

	r := StartRun(tr, nil, "opimc", RunParams{N: 100, M: 200, K: 10, Eps: 0.1, Seed: 7, Workers: 4})
	r.Theta(1<<20, 1<<16, 1<<18)
	r.Round(nil, RoundRecord{Round: 1, Theta: 4096, Lower: 1.5, Upper: 2.5, Approx: 0.6})
	r.Crossed(3, 0.91, 0.9)
	r.Phase("selection")
	r.PhaseDone()
	r.Done(3, 9999, 42.5)

	snap := fl.Journal().Snapshot()
	wantKinds := []flight.Kind{
		flight.KindSpanOpen, flight.KindSpanClose,
		flight.KindSpanOpen, flight.KindRunStart, flight.KindTheta,
		flight.KindRoundDone, flight.KindBoundCrossed,
		flight.KindSpanOpen, flight.KindSpanClose, flight.KindPhaseDone,
		flight.KindSpanClose, flight.KindRunDone,
	}
	if len(snap.Events) != len(wantKinds) {
		t.Fatalf("journal saw %d events, want %d: %+v", len(snap.Events), len(wantKinds), snap.Events)
	}
	for i, want := range wantKinds {
		if snap.Events[i].Kind != want {
			t.Errorf("event %d kind = %v, want %v", i, snap.Events[i].Kind, want)
		}
	}
	if e := snap.Events[0]; e.Label != "sampling" {
		t.Errorf("span.open label = %q", e.Label)
	}
	if e := snap.Events[3]; e.Label != "opimc" || e.A != 100 || e.B != 200 || e.F1 != 10 || e.F3 != 4 {
		t.Errorf("run.start payload = %+v", e)
	}
	if e := snap.Events[4]; e.A != 1<<20 || e.B != 1<<16 || e.F1 != 1<<18 {
		t.Errorf("theta.update payload = %+v", e)
	}
	if e := snap.Events[5]; e.Label != "opimc" || e.A != 1 || e.B != 4096 || e.F1 != 1.5 || e.F2 != 2.5 || e.F3 != 0.6 {
		t.Errorf("round.done payload = %+v", e)
	}
	if e := snap.Events[9]; e.Label != "selection" || e.A < 0 {
		t.Errorf("phase.done payload = %+v", e)
	}
	if e := snap.Events[11]; e.Label != "opimc" || e.A != 3 || e.B != 9999 || e.F1 != 42.5 {
		t.Errorf("run.done payload = %+v", e)
	}

	// The round record is also the one writer of the bound gauges, and
	// the θ event of theta_saved_total.
	m := tr.Metrics()
	if m.Round.Load() != 1 || m.Lower.Load() != 1.5 || m.Upper.Load() != 2.5 || m.Approx.Load() != 0.6 {
		t.Errorf("bound gauges = round %d [%v, %v] %v", m.Round.Load(), m.Lower.Load(), m.Upper.Load(), m.Approx.Load())
	}
	if m.ThetaWorst.Load() != 1<<20 || m.ThetaTight.Load() != 1<<16 || m.ThetaSaved.Load() != 1<<20-1<<18 {
		t.Errorf("theta instruments = %d/%d saved %d", m.ThetaWorst.Load(), m.ThetaTight.Load(), m.ThetaSaved.Load())
	}
}

// TestRunThetaCreditsSavedBudgetOnce: a run that lowers its θ cap again
// (OPIM-C's adaptive tightened budget) credits theta_saved_total with
// the total reduction, never the same reduction twice.
func TestRunThetaCreditsSavedBudgetOnce(t *testing.T) {
	tr := NewTracer()
	r := StartRun(tr, nil, "opimc", RunParams{})
	r.Theta(1000, 400, 1000) // worst-case cap: nothing saved
	if got := tr.Metrics().ThetaSaved.Load(); got != 0 {
		t.Fatalf("worst-case cap credited %d", got)
	}
	r.Theta(1000, 400, 400)
	r.Theta(1000, 400, 250)
	r.Theta(1000, 400, 300) // a higher cap never takes credit back
	if got := tr.Metrics().ThetaSaved.Load(); got != 750 {
		t.Errorf("theta_saved_total = %d, want 750", got)
	}
}

func TestWriteBundleArtifacts(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	var gotPath, gotReason string
	fl := tr.EnableFlight(FlightConfig{
		Dir: dir, Tool: "gluetest", SampleEvery: -1,
		OnBundle: func(path, reason string, err error) {
			gotPath, gotReason = path, reason
			if err != nil {
				t.Errorf("OnBundle error: %v", err)
			}
		},
	})
	defer fl.Close()
	tr.Span("phase-a").End()

	path, err := fl.WriteBundle("manual")
	if err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	if gotPath != path || gotReason != "manual" {
		t.Errorf("OnBundle saw (%q, %q), want (%q, manual)", gotPath, gotReason, path)
	}
	man, err := flight.ReadManifest(path)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if man.Tool != "gluetest" || man.Reason != "manual" {
		t.Errorf("manifest header = %+v", man)
	}
	want := []string{
		"report.json", "spans.json", "trace.json", "metrics.prom",
		"journal.json", "history.json", "goroutines.txt", "heap.pprof",
	}
	for _, name := range want {
		f, ok := man.File(name)
		if !ok {
			t.Errorf("bundle missing artifact %s", name)
			continue
		}
		if f.Error != "" {
			t.Errorf("artifact %s failed: %s", name, f.Error)
		}
		if f.Bytes == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
	// The trigger itself is journaled on the control stream, so the
	// bundle's own journal snapshot records why it exists.
	raw, err := os.ReadFile(filepath.Join(path, "journal.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"bundle.write"`) || !strings.Contains(string(raw), `"manual"`) {
		t.Error("bundle journal must record the bundle.write trigger event")
	}
}

func TestCapturePanicWritesBundleAndRepanics(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	fl := tr.EnableFlight(FlightConfig{Dir: dir, SampleEvery: -1})
	defer fl.Close()

	recovered := func() (r any) {
		defer func() { r = recover() }()
		func() {
			defer fl.CapturePanic()
			panic("forced glue panic")
		}()
		return nil
	}()
	if recovered != "forced glue panic" {
		t.Fatalf("CapturePanic must re-panic with the original value, got %v", recovered)
	}
	bundles, err := flight.ListBundles(dir)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("ListBundles = %v, %v; want exactly one panic bundle", bundles, err)
	}
	if !strings.Contains(bundles[0], "-panic.bundle") {
		t.Errorf("bundle dir %s not reason-tagged panic", bundles[0])
	}
	body, err := os.ReadFile(filepath.Join(bundles[0], "panic.txt"))
	if err != nil {
		t.Fatalf("panic.txt: %v", err)
	}
	if !strings.Contains(string(body), "forced glue panic") || !strings.Contains(string(body), "goroutine") {
		t.Errorf("panic.txt missing value or stack:\n%s", body)
	}
}

func TestWatchdogStallWritesBundle(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	stalled := make(chan string, 1)
	fl := tr.EnableFlight(FlightConfig{
		Dir: dir, Tool: "gluetest", SampleEvery: -1,
		StallWindow: 60 * time.Millisecond,
		OnBundle: func(path, reason string, err error) {
			if err == nil && reason == "stall" {
				select {
				case stalled <- path:
				default:
				}
			}
		},
	})
	defer fl.Close()
	if fl.Watchdog() == nil {
		t.Fatal("StallWindow must arm the watchdog")
	}

	// An open span with no journal/set progress is exactly the wedge the
	// watchdog exists for.
	span := tr.Span("wedged-phase")
	var path string
	select {
	case path = <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never produced a stall bundle")
	}
	span.End()
	if fl.Watchdog().Stalls() < 1 {
		t.Error("watchdog stall count not incremented")
	}
	man, err := flight.ReadManifest(path)
	if err != nil {
		t.Fatalf("stall bundle manifest: %v", err)
	}
	if man.Reason != "stall" {
		t.Errorf("manifest reason = %q", man.Reason)
	}
	raw, err := os.ReadFile(filepath.Join(path, "journal.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"watchdog.stall"`) {
		t.Error("stall bundle journal must carry the watchdog.stall event")
	}
}

func TestFlattenSpans(t *testing.T) {
	roots := []*SpanSnapshot{
		{Name: "run", StartNS: 0, DurationNS: 100, Children: []*SpanSnapshot{
			{Name: "sampling", StartNS: 10, DurationNS: 40},
			{Name: "selection", StartNS: 50, DurationNS: 30},
		}},
		{Name: "tail", StartNS: 200, DurationNS: 5},
	}
	flat := FlattenSpans(roots)
	if len(flat) != 4 {
		t.Fatalf("flattened %d spans, want 4", len(flat))
	}
	if flat[0].Name != "run" || flat[0].EndNS != 100 {
		t.Errorf("root span = %+v", flat[0])
	}
	if flat[1].Name != "sampling" || flat[1].StartNS != 10 || flat[1].EndNS != 50 {
		t.Errorf("child span = %+v", flat[1])
	}
	if flat[3].Name != "tail" || flat[3].StartNS != 200 || flat[3].EndNS != 205 {
		t.Errorf("second root = %+v", flat[3])
	}
	if FlattenSpans(nil) != nil {
		t.Error("empty forest must flatten to nil")
	}
}
