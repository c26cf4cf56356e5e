package subsim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"subsim"
	"subsim/internal/obs"
	"subsim/internal/obs/flight"
)

// algOutput is the algorithm-visible slice of a Result: everything the
// run computes, nothing the instrumentation adds (Elapsed and Report are
// wall-clock / observability products and legitimately vary).
type algOutput struct {
	Seeds      []int32
	Influence  float64
	LowerBound float64
	UpperBound float64
	Approx     float64
	Rounds     int
	Sets       int64
}

func capture(res *subsim.Result) []byte {
	raw, err := json.Marshal(algOutput{
		Seeds:      res.Seeds,
		Influence:  res.Influence,
		LowerBound: res.LowerBound,
		UpperBound: res.UpperBound,
		Approx:     res.Approx,
		Rounds:     res.Rounds,
		Sets:       res.RRStats.Sets,
	})
	if err != nil {
		panic(err)
	}
	return raw
}

// TestFlightRecorderEquivalence pins the always-on promise of the flight
// recorder: attaching the journal, sampler and watchdog must not perturb
// the algorithm — run output is byte-identical with the recorder on and
// off, at every worker count. HIST covers the phase and sentinel-round
// events.
func TestFlightRecorderEquivalence(t *testing.T) {
	g, err := subsim.GenPreferentialAttachment(900, 4, false, 23)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWCVariant(2)

	for _, alg := range []subsim.Algorithm{subsim.AlgOPIMC, subsim.AlgSUBSIM, subsim.AlgHISTSubsim} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/workers=%d", alg, workers), func(t *testing.T) {
				opt := subsim.Options{K: 5, Eps: 0.3, Seed: 11, Workers: workers}
				plain, err := subsim.Maximize(g, alg, opt)
				if err != nil {
					t.Fatal(err)
				}

				tr := obs.NewTracer()
				fl := tr.EnableFlight(obs.FlightConfig{
					Dir: t.TempDir(), Tool: "equivtest",
					StallWindow: 30 * 1e9, // armed but far beyond the run
				})
				defer fl.Close()
				opt.Tracer = tr
				recorded, err := subsim.Maximize(g, alg, opt)
				if err != nil {
					t.Fatal(err)
				}

				want, got := capture(plain), capture(recorded)
				if string(want) != string(got) {
					t.Errorf("recorder perturbed the run:\noff: %s\non:  %s", want, got)
				}
				if fl.Journal().Written() == 0 {
					t.Error("recorded run journaled nothing — the recorder was not actually on")
				}
			})
		}
	}
}

// TestRunJournalsOneRecordPerRound: every counted round reports exactly
// one round record, so a run's journal holds Result.Rounds round.done
// events, and nothing else journals the bounds. The HIST input runs
// sentinel-phase rounds before its residual phase, and the SSA input
// ends on its θ-cap round.
func TestRunJournalsOneRecordPerRound(t *testing.T) {
	pa, err := subsim.GenPreferentialAttachment(3000, 4, false, 23)
	if err != nil {
		t.Fatal(err)
	}
	pa.AssignWCVariant(2)
	small, err := subsim.GenPreferentialAttachment(60, 3, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	small.AssignWC()

	cases := []struct {
		alg subsim.Algorithm
		g   *subsim.Graph
		opt subsim.Options
	}{
		{subsim.AlgIMM, small, subsim.Options{K: 3, Eps: 0.3, Seed: 3, Workers: 1}},
		{subsim.AlgSSA, small, subsim.Options{K: 3, Eps: 0.3, Seed: 3, Workers: 1}},
		{subsim.AlgOPIMC, small, subsim.Options{K: 3, Eps: 0.3, Seed: 3, Workers: 1}},
		{subsim.AlgTIMPlus, small, subsim.Options{K: 3, Eps: 0.3, Seed: 3, Workers: 1}},
		{subsim.AlgHISTSubsim, pa, subsim.Options{K: 10, Eps: 0.2, Seed: 3, Workers: 1}},
	}
	for _, c := range cases {
		t.Run(c.alg.String(), func(t *testing.T) {
			tr := obs.NewTracer()
			fl := tr.EnableFlight(obs.FlightConfig{SampleEvery: -1})
			defer fl.Close()
			opt := c.opt
			opt.Tracer = tr
			res, err := subsim.Maximize(c.g, c.alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			rounds := 0
			for _, e := range fl.Journal().Snapshot().Events {
				if e.Kind == flight.KindRoundDone {
					rounds++
				}
				if e.Kind.String() == "bounds.update" {
					t.Errorf("bounds journaled outside the round record: %+v", e)
				}
			}
			if rounds != res.Rounds {
				t.Errorf("journal holds %d round.done events, Result.Rounds = %d", rounds, res.Rounds)
			}
		})
	}
}

// TestHISTRoundsLogTheirPhase: round numbers restart in each HIST phase,
// so every round.done record of an AlgHISTSubsim run names its phase —
// the sentinel-phase rounds first, then the residual-phase rounds — and
// the run logs Result.Rounds of them.
func TestHISTRoundsLogTheirPhase(t *testing.T) {
	g, err := subsim.GenPreferentialAttachment(3000, 4, false, 23)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWCVariant(2)
	var buf bytes.Buffer
	res, err := subsim.Maximize(g, subsim.AlgHISTSubsim, subsim.Options{
		K: 10, Eps: 0.2, Seed: 3, Workers: 1, Logger: subsim.NewLogger(&buf, "json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Msg   string  `json:"msg"`
			Phase *string `json:"phase"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record is not JSON: %v\n%s", err, line)
		}
		if rec.Msg != "round.done" {
			continue
		}
		if rec.Phase == nil {
			t.Fatalf("round.done without a phase: %s", line)
		}
		phases = append(phases, *rec.Phase)
	}
	if len(phases) != res.Rounds {
		t.Fatalf("logged %d round.done records, Result.Rounds = %d", len(phases), res.Rounds)
	}
	residual := slices.Index(phases, "residual-phase")
	if residual < 1 {
		t.Fatalf("round.done phases %v: want sentinel-phase rounds, then residual-phase rounds", phases)
	}
	for i, p := range phases {
		want := "residual-phase"
		if i < residual {
			want = "sentinel-phase"
		}
		if p != want {
			t.Fatalf("round.done %d phase = %q, want %q (phases %v)", i, p, want, phases)
		}
	}
}
