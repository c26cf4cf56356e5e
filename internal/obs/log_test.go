package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestNilLoggerIsSilentAndAllocationFree(t *testing.T) {
	var l *Logger
	if l.Slog() != nil {
		t.Error("nil logger exposes a slog.Logger")
	}
	if l.With("k", 1) != nil {
		t.Error("nil logger With returned non-nil")
	}
	// The typed emitters take concrete arguments, so the disabled path
	// must not box or allocate — the logging twin of the nil-tracer
	// contract.
	allocs := testing.AllocsPerRun(100, func() {
		l.RunStart("opimc", 1000, 5000, 50, 0.1, 42, 8)
		l.RoundDone("opimc", 3, 4096, 120.5, 200, 0.6)
		l.BoundCrossed("opimc", 3, 0.64, 0.53)
		l.PhaseDone("hist", "sentinel-phase", 123456)
		l.RunDone("opimc", 3, 8192, 130.2, 987654)
	})
	if allocs != 0 {
		t.Errorf("nil logger emitters allocate %.1f per run, want 0", allocs)
	}
}

func TestLoggerEventSchema(t *testing.T) {
	var buf bytes.Buffer
	l := NewLoggerWriter(&buf, "json", nil)
	l.RunStart("opimc", 1000, 5000, 50, 0.1, 42, 8)
	l.RoundDone("opimc", 3, 4096, 120.5, 200, 0.6)
	l.BoundCrossed("opimc", 3, 0.64, 0.53)
	l.PhaseDone("hist", "sentinel-phase", 123456)
	l.RunDone("opimc", 3, 8192, 130.2, 987654)

	// The exact attribute set of each event, beyond slog's own time,
	// level and msg keys: DESIGN.md "Structured log events" freezes it.
	want := []struct {
		msg   string
		attrs []string
	}{
		{"run.start", []string{"alg", "graph_n", "graph_m", "k", "eps", "seed", "workers"}},
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
	if NewLogger(nil) != nil {
		t.Error("NewLogger(nil) should be the disabled logger")
	}
	if NewLoggerWriter(nil, "json", nil) != nil {
		t.Error("NewLoggerWriter(nil, ...) should be the disabled logger")
	}
}

func TestLoggerTextFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLoggerWriter(&buf, "text", nil)
	l.BoundCrossed("hist", 2, 0.7, 0.53)
	out := buf.String()
	if !strings.Contains(out, "msg=bound.crossed") || !strings.Contains(out, "alg=hist") {
		t.Errorf("text record missing fields: %s", out)
	}
}
