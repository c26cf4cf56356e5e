package subsim_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"subsim"
)

// TestRunLogsOneRecordPerRound: every counted round reports exactly one
// round record, so a run's JSON log holds Result.Rounds round.done
// records, and no other record carries the bounds. The run reports its
// θ cap once: one theta.update record whose worst is
// Result.ThetaWorstCase. The HIST input runs sentinel-phase rounds
// before its residual phase, and the SSA input ends on its θ-cap round.
func TestRunLogsOneRecordPerRound(t *testing.T) {
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
			var buf bytes.Buffer
			opt := c.opt
			opt.Logger = subsim.NewLogger(&buf, "json")
			res, err := subsim.Maximize(c.g, c.alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			rounds, thetas := 0, 0
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var rec map[string]any
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("record is not JSON: %v\n%s", err, line)
				}
				switch rec["msg"] {
				case "round.done":
					rounds++
					continue
				case "theta.update":
					thetas++
					if w, _ := rec["worst"].(float64); int64(w) != res.ThetaWorstCase || res.ThetaWorstCase < 1 {
						t.Errorf("theta.update worst = %v, Result.ThetaWorstCase = %d", rec["worst"], res.ThetaWorstCase)
					}
				}
				if _, ok := rec["lower"]; ok {
					t.Errorf("bounds logged outside the round record: %s", line)
				}
			}
			if rounds != res.Rounds {
				t.Errorf("log holds %d round.done records, Result.Rounds = %d", rounds, res.Rounds)
			}
			if thetas != 1 {
				t.Errorf("log holds %d theta.update records, want 1", thetas)
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
