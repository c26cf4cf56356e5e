// Skewed propagation probabilities (general IC): when edge weights are
// learned from data they are rarely uniform — the paper models this with
// Exponential and Weibull weights, normalised per node. This example
// compares SUBSIM's index-free general-IC subset sampling against the
// vanilla per-edge coin flip, reproducing the dynamics of the paper's
// Figure 2, and then runs the full pipeline on the skewed graph — plus
// the Linear Threshold model for good measure.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"subsim"
)

const numSets = 50000

func main() {
	g, err := subsim.GenPreferentialAttachment(20000, 40, false, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d nodes, %d edges\n\n", g.N(), g.M())

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "distribution\tkernel\ttime for %d RR sets\tspeedup\n", numSets)
	for i, dist := range []string{"Exponential", "Weibull"} {
		model := subsim.ModelExponential
		if dist == "Weibull" {
			model = subsim.ModelWeibull
		}
		if err := subsim.AssignSkewed(g, model, uint64(13+i)); err != nil {
			log.Fatal(err)
		}
		kernels := []struct {
			name string
			kind subsim.GeneratorKind
		}{
			{"vanilla (Alg. 2)", subsim.GenVanilla},
			{"SUBSIM index-free", subsim.GenSubsim},
		}
		var base float64
		for i, k := range kernels {
			gen := subsim.NewRRGenerator(g, k.kind)
			start := time.Now()
			subsim.SampleRRSets(gen, numSets, 17)
			secs := time.Since(start).Seconds()
			if i == 0 {
				base = secs
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3fs\t%.1fx\n", dist, k.name, secs, base/secs)
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	// End-to-end on the skewed graph: OPIM-C chassis over the index-free
	// general-IC generator.
	res, err := subsim.MaximizeWith(
		subsim.NewRRGenerator(g, subsim.GenSubsim),
		subsim.AlgSUBSIM,
		subsim.Options{K: 50, Eps: 0.1, Seed: 19},
	)
	if err != nil {
		log.Fatal(err)
	}
	spread := subsim.EstimateInfluence(g, res.Seeds, 5000, subsim.IC, 21)
	fmt.Printf("\ngeneral-IC maximization: %d seeds in %v, spread %.0f users\n",
		len(res.Seeds), res.Elapsed, spread)

	// The same pipeline under the Linear Threshold model.
	g.AssignLT()
	ltRes, err := subsim.MaximizeWith(
		subsim.NewRRGenerator(g, subsim.GenLT),
		subsim.AlgOPIMC,
		subsim.Options{K: 50, Eps: 0.1, Seed: 23},
	)
	if err != nil {
		log.Fatal(err)
	}
	ltSpread := subsim.EstimateInfluence(g, ltRes.Seeds, 5000, subsim.LT, 25)
	fmt.Printf("linear-threshold maximization: %d seeds in %v, spread %.0f users\n",
		len(ltRes.Seeds), ltRes.Elapsed, ltSpread)
}
