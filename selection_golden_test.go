package subsim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subsim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// selectionGoldenPath holds the committed seeds and certified bounds of
// every selectionCases run. It was recorded with the full-scan Λᵘ
// implementation (a bounded-insertion top-L sum over every node's stored
// gain) that the CELF-heap frontier walk replaced, so it pins that the
// walk changed no pick and no bound bit. Regenerate with
// `go test . -run SelectionGolden -update` only after a change that is
// meant to move results.
var selectionGoldenPath = filepath.Join("testdata", "selection_golden.json")

// selectionGolden is one recorded run: its seeds in pick order and the
// IEEE-754 bits of its certified bounds and influence estimate, as hex,
// so a one-ulp drift fails the comparison.
type selectionGolden struct {
	Name      string  `json:"name"`
	Seeds     []int32 `json:"seeds"`
	Lower     string  `json:"lower_bits"`
	Upper     string  `json:"upper_bits"`
	Influence string  `json:"influence_bits"`
}

// selectionCase is one golden run configuration.
type selectionCase struct {
	name string
	alg  subsim.Algorithm
	opt  subsim.Options
}

// selectionCases drive the Λᵘ prefix bound through every shape it has:
// OPIM-C with a large k on both exact backends at one and two workers
// (n is above the parallel initial-gain threshold, so W=2 takes the
// partitioned first round), the out-degree tie-break, HIST's second
// phase (Revised + Exclude + Base + TopL = k), and the HLL backend's
// float-valued bound. The HIST runs pick 5 of their 50 seeds as
// sentinels, so the second phase selects the other 45.
func selectionCases() []selectionCase {
	opimc := func(est subsim.EstimatorKind, workers int, revised bool) subsim.Options {
		return subsim.Options{K: 600, Eps: 0.2, Seed: 5, Workers: workers, Estimator: est, Revised: revised}
	}
	hist := func(est subsim.EstimatorKind, workers int) subsim.Options {
		return subsim.Options{K: 50, Eps: 0.2, Seed: 9, Workers: workers, Estimator: est}
	}
	return []selectionCase{
		{"opimc-exact-w1", subsim.AlgSUBSIM, opimc(subsim.EstimatorExact, 1, false)},
		{"opimc-exact-w2", subsim.AlgSUBSIM, opimc(subsim.EstimatorExact, 2, false)},
		{"opimc-sharded-w1", subsim.AlgSUBSIM, opimc(subsim.EstimatorSharded, 1, false)},
		{"opimc-sharded-w2", subsim.AlgSUBSIM, opimc(subsim.EstimatorSharded, 2, false)},
		{"opimc-exact-revised-w2", subsim.AlgSUBSIM, opimc(subsim.EstimatorExact, 2, true)},
		{"hist-exact-w1", subsim.AlgHISTSubsim, hist(subsim.EstimatorExact, 1)},
		{"hist-sharded-w2", subsim.AlgHISTSubsim, hist(subsim.EstimatorSharded, 2)},
		{"opimc-hll-w2", subsim.AlgSUBSIM, opimc(subsim.EstimatorHLL, 2, false)},
		{"hist-hll-w1", subsim.AlgHISTSubsim, hist(subsim.EstimatorHLL, 1)},
	}
}

func hexBits(f float64) string { return fmt.Sprintf("%#016x", math.Float64bits(f)) }

// TestSelectionGolden reruns every selectionCases configuration on a
// fixed directed preferential-attachment graph and requires seeds and
// bound bits identical to the committed golden. WC-variant weights with
// θ = 0.3 keep every certified upper bound well below n, so it is set
// by Λᵘ rather than by the trivial cap.
func TestSelectionGolden(t *testing.T) {
	g, err := subsim.GenPreferentialAttachment(5000, 4, false, 11)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWCVariant(0.3)

	var got []selectionGolden
	for _, c := range selectionCases() {
		res, err := subsim.Maximize(g, c.alg, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, selectionGolden{
			Name:      c.name,
			Seeds:     res.Seeds,
			Lower:     hexBits(res.LowerBound),
			Upper:     hexBits(res.UpperBound),
			Influence: hexBits(res.Influence),
		})
	}

	if *update {
		// One case per line keeps diffs of a deliberate re-record readable.
		buf := []byte("[\n")
		for i, c := range got {
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				buf = append(buf, ",\n"...)
			}
			buf = append(buf, line...)
		}
		buf = append(buf, "\n]"...)
		if err := os.MkdirAll(filepath.Dir(selectionGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(selectionGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(selectionGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want []selectionGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d cases, test runs %d (regenerate with -update if intended)", len(want), len(got))
	}
	for i, w := range want {
		gc := got[i]
		if gc.Name != w.Name {
			t.Fatalf("case %d is %q, golden has %q", i, gc.Name, w.Name)
		}
		if !slices.Equal(gc.Seeds, w.Seeds) {
			j := 0
			for j < len(gc.Seeds) && j < len(w.Seeds) && gc.Seeds[j] == w.Seeds[j] {
				j++
			}
			t.Errorf("%s: seeds diverge from golden at pick %d of %d/%d", w.Name, j, len(gc.Seeds), len(w.Seeds))
		}
		if gc.Lower != w.Lower || gc.Upper != w.Upper || gc.Influence != w.Influence {
			t.Errorf("%s: bounds (lower, upper, influence) bits = (%s, %s, %s), golden (%s, %s, %s)",
				w.Name, gc.Lower, gc.Upper, gc.Influence, w.Lower, w.Upper, w.Influence)
		}
	}
}
