package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
)

// testParams are the run.start parameters the logging tests record.
var testParams = RunParams{N: 1000, M: 5000, K: 50, Eps: 0.1, Seed: 42, Workers: 8}

// driveRun reports one event of every kind on r, in schema order.
func driveRun(r *Run) (time.Duration, *Report) {
	r.Theta(1 << 20)
	r.Round(r.Span().Child(Round(3)), RoundRecord{Round: 3, Theta: 4096, Lower: 120.5, Upper: 200, Approx: 0.6})
	r.Crossed(3, 0.64, 0.53)
	r.Phase("sentinel-phase")
	r.PhaseDone()
	return r.Done(3, 8192, 130.2)
}

func TestNilLoggerIsSilentAndAllocationFree(t *testing.T) {
	// With a nil tracer and a nil logger every Run method must neither
	// box nor allocate — the logging twin of the nil-tracer contract.
	allocs := testing.AllocsPerRun(100, func() {
		r := StartRun(nil, nil, "opimc", testParams)
		driveRun(&r)
	})
	if allocs != 0 {
		t.Errorf("nil-sink Run allocates %.1f per run, want 0", allocs)
	}
	r := StartRun(nil, nil, "opimc", testParams)
	if elapsed, rep := driveRun(&r); elapsed < 0 || rep != nil {
		t.Errorf("nil-sink Done = (%v, %v), want an Elapsed and no report", elapsed, rep)
	}
}

// TestRoundCarriesPhase: while a phase opened by Phase is open,
// round.done names it; PhaseDone clears the name, so a later round
// carries none. With nil sinks the phased path allocates nothing.
func TestRoundCarriesPhase(t *testing.T) {
	phased := func(r *Run) {
		r.Phase("sentinel-phase")
		r.Round(nil, RoundRecord{Round: 1, Theta: 64})
		r.PhaseDone()
		r.Round(nil, RoundRecord{Round: 2, Theta: 128})
	}
	var buf bytes.Buffer
	r := StartRun(nil, NewLoggerWriter(&buf, "json"), "hist", testParams)
	phased(&r)
	var phases []any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "round.done" {
			phases = append(phases, rec["phase"])
		}
	}
	if want := []any{"sentinel-phase", nil}; !slices.Equal(phases, want) {
		t.Errorf("round.done phases = %v, want %v", phases, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r := StartRun(nil, nil, "hist", testParams)
		phased(&r)
	})
	if allocs != 0 {
		t.Errorf("nil-sink phased Run allocates %.1f per run, want 0", allocs)
	}
}

func TestLoggerEventSchema(t *testing.T) {
	var buf bytes.Buffer
	r := StartRun(nil, NewLoggerWriter(&buf, "json"), "opimc", testParams)
	driveRun(&r)

	// The exact attribute set of each event, beyond slog's own time,
	// level and msg keys: DESIGN.md "Structured log events" freezes it.
	want := []struct {
		msg   string
		attrs []string
	}{
		{"run.start", []string{"alg", "graph_n", "graph_m", "k", "eps", "seed", "workers"}},
		{"theta.update", []string{"alg", "worst"}},
		{"round.done", []string{"alg", "round", "theta", "lower", "upper", "approx"}},
		{"bound.crossed", []string{"alg", "round", "approx", "target"}},
		{"phase.done", []string{"alg", "phase", "elapsed_ns"}},
		{"run.done", []string{"alg", "rounds", "sets", "influence", "elapsed_ns"}},
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d records, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d is not JSON: %v\n%s", i, err, line)
		}
		if rec["msg"] != want[i].msg {
			t.Errorf("record %d msg = %v, want %s", i, rec["msg"], want[i].msg)
		}
		var got []string
		for key := range rec {
			if key != "time" && key != "level" && key != "msg" {
				got = append(got, key)
			}
		}
		slices.Sort(got)
		wantKeys := slices.Clone(want[i].attrs)
		slices.Sort(wantKeys)
		if !slices.Equal(got, wantKeys) {
			t.Errorf("%s attributes = %v, want %v", want[i].msg, got, wantKeys)
		}
	}
}

func TestNewLoggerDisabledForms(t *testing.T) {
	for _, format := range []string{"json", "text"} {
		if NewLoggerWriter(nil, format) != nil {
			t.Errorf("NewLoggerWriter(nil, %q) should be the disabled logger", format)
		}
	}
	// A tracer without a logger still records the run: spans and gauges,
	// but no log output anywhere to write to.
	tr := NewTracer()
	r := StartRun(tr, nil, "opimc", testParams)
	if _, rep := driveRun(&r); rep.Span("opimc") == nil || rep.Gauges["round"] != 3 {
		t.Errorf("logger-less run lost its root span or round gauge: %+v", rep)
	}
	// The round record is the one writer of the bound gauges, and the θ
	// event of the θ gauge.
	m := tr.Metrics()
	if m.Round.Load() != 3 || m.Lower.Load() != 120.5 || m.Upper.Load() != 200 || m.Approx.Load() != 0.6 {
		t.Errorf("bound gauges = round %d [%v, %v] %v", m.Round.Load(), m.Lower.Load(), m.Upper.Load(), m.Approx.Load())
	}
	if m.ThetaWorst.Load() != 1<<20 {
		t.Errorf("theta gauge = %d, want %d", m.ThetaWorst.Load(), 1<<20)
	}
}

func TestLoggerTextFormat(t *testing.T) {
	var buf bytes.Buffer
	r := StartRun(nil, NewLoggerWriter(&buf, "text"), "hist", testParams)
	buf.Reset()
	r.Crossed(2, 0.7, 0.53)
	out := buf.String()
	if !strings.Contains(out, "msg=bound.crossed") || !strings.Contains(out, "alg=hist") {
		t.Errorf("text record missing fields: %s", out)
	}
}
