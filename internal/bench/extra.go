package bench

import (
	"fmt"
	"io"
	"time"

	"subsim/internal/core"
	"subsim/internal/diffusion"
	"subsim/internal/heuristics"
	"subsim/internal/rrset"
)

// RunHeuristics is an extra experiment (not in the paper): seed quality
// and selection time of the guarantee-free heuristics against the
// paper's SUBSIM configuration, scored by forward Monte-Carlo
// simulation. It quantifies what the certified machinery buys.
func RunHeuristics(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Extra: heuristic seed quality vs SUBSIM (WC, k=%d)", c.FixedK),
		Header: []string{"Dataset", "Strategy", "select time", "spread (MC)", "vs SUBSIM"},
	}
	for _, d := range c.datasets() {
		g, err := d.Generate()
		if err != nil {
			return nil, err
		}
		g.AssignWC()
		k := c.FixedK
		if k > g.N() {
			k = g.N()
		}

		opt := c.options(k)
		start := time.Now()
		res, err := core.SUBSIM(g, opt)
		if err != nil {
			return nil, err
		}
		subsimTime := time.Since(start).Seconds()
		ref := diffusion.EstimateParallel(g, res.Seeds, c.MCSamples, diffusion.IC, c.Seed, c.Workers)
		t.AddRow(d.Name, "SUBSIM", Seconds(subsimTime), Cell(ref), "100.0%")

		for _, h := range heuristics.All {
			start := time.Now()
			seeds, err := heuristics.Select(h, g, k)
			if err != nil {
				return nil, err
			}
			selTime := time.Since(start).Seconds()
			spread := diffusion.EstimateParallel(g, seeds, c.MCSamples, diffusion.IC, c.Seed, c.Workers)
			t.AddRow(d.Name, string(h), Seconds(selTime), Cell(spread),
				fmt.Sprintf("%.1f%%", 100*spread/ref))
		}
	}
	return t, t.Fprint(w)
}

// RunGeneratorAblation is an extra experiment: per-RR-set generation
// cost of every kernel across the weight models, isolating the paper's
// Section 3 contribution from the IM chassis.
func RunGeneratorAblation(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Extra: RR generation kernels across weight models (%d sets each)", c.Fig2Sets),
		Header: []string{"Dataset", "Model", "vanilla", "subsim",
			"vanilla edges/set", "subsim edges/set"},
	}
	for _, d := range c.datasets() {
		g, err := d.Generate()
		if err != nil {
			return nil, err
		}
		for _, model := range []string{"WC", "WC-variant(2)", "Uniform(avg)", "Exponential"} {
			switch model {
			case "WC":
				g.AssignWC()
			case "WC-variant(2)":
				g.AssignWCVariant(2)
			case "Uniform(avg)":
				g.AssignUniform(1 / g.AvgDegree())
			case "Exponential":
				g.AssignExponential(rngFor(c.Seed), 1)
			}
			gens := []rrset.Generator{rrset.NewVanilla(g), rrset.NewSubsim(g)}
			row := []string{d.Name, model}
			var examined [2]float64
			for i, gen := range gens {
				src := rngFor(c.Seed + 7)
				start := time.Now()
				for s := 0; s < c.Fig2Sets; s++ {
					rrset.GenerateRandom(gen, src, nil)
				}
				row = append(row, Seconds(time.Since(start).Seconds()))
				st := gen.Stats()
				examined[i] = float64(st.EdgesExamined) / float64(st.Sets)
			}
			row = append(row, Cell(examined[0]), Cell(examined[1]))
			t.AddRow(row...)
		}
	}
	return t, t.Fprint(w)
}
