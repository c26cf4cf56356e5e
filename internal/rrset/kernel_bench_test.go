package rrset

import (
	"testing"

	"subsim/internal/graph"
	"subsim/internal/rng"
)

// batcherSeed mirrors the per-set seed derivation of im.Batcher: set idx
// of a batcher seeded with base draws from a Source seeded with this
// splitmix-style mix of the two.
func batcherSeed(base uint64, idx int64) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// BenchmarkSubsimKernel times SUBSIM generation alone, without coverage
// or selection, on the graphs of the certified-run benchmark
// (BENCHMARK.json): the 20k-node WC graph of subsim-wc, whose ~14-node
// sets fit in cache, and the 100k-node WC-variant graph of hist-wcv,
// whose ~1000-node full sets miss it on most edges. Each set is seeded
// the way im.Batcher seeds it, into an arena reset every 1024 sets.
// ns/set and ns/edge divide the loop's time by the sets drawn and by
// Stats.EdgesExamined.
func BenchmarkSubsimKernel(b *testing.B) {
	for _, c := range []struct {
		name  string
		n     int
		theta float64 // WC-variant constant; 0 selects plain WC
	}{
		{"pa20k-wc", 20000, 0},
		{"pa100k-wcv1.146", 100000, 1.146},
	} {
		g, err := graph.GenPreferentialAttachment(c.n, 8, false, rng.New(7))
		if err != nil {
			b.Fatal(err)
		}
		if c.theta == 0 {
			g.AssignWC()
		} else {
			g.AssignWCVariant(c.theta)
		}
		b.Run(c.name, func(b *testing.B) {
			gen := NewSubsim(g)
			arena := NewArena(0, 0)
			r := rng.New(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					arena.Reset()
				}
				r.Seed(batcherSeed(1, int64(i)))
				GenerateRandomInto(gen, arena, r, nil)
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(b.N), "ns/set")
			if e := gen.Stats().EdgesExamined; e > 0 {
				b.ReportMetric(ns/float64(e), "ns/edge")
			}
		})
	}
}
