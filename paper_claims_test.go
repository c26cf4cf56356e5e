package subsim_test

import (
	"sync/atomic"
	"testing"

	"subsim"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// TestPaperClaims pins the mechanisms behind the paper's Figures 1-4 as
// ratios of counts at fixed seeds: edges examined, RR nodes generated and
// RR set sizes. The i-th RR set of a run comes from an RNG stream of
// (seed, i) whatever the worker count, so the counts, and the floors,
// hold on any host. Each row logs its ratio and fails below a floor set
// well under the measured value, so it fails when the mechanism breaks,
// not when the ratio drifts.
func TestPaperClaims(t *testing.T) {
	claims := []struct {
		name, ratio string
		floor       float64
		measure     func(t *testing.T) (num, den float64)
	}{
		{"Fig2/WC", "vanilla/SUBSIM edges examined per RR set", 10, func(t *testing.T) (float64, float64) {
			return edgesPerSet(benchGraph(t, 5000, 24, "wc"))
		}},
		{"Fig2/Exponential", "vanilla/SUBSIM edges examined per RR set", 10, func(t *testing.T) (float64, float64) {
			return edgesPerSet(benchGraph(t, 5000, 24, "exp"))
		}},
		{"Fig2/Weibull", "vanilla/SUBSIM edges examined per RR set", 10, func(t *testing.T) (float64, float64) {
			return edgesPerSet(benchGraph(t, 5000, 24, "weibull"))
		}},
		// Fig. 3(b): HIST's average RR set against a full one. The
		// denominator is every set HIST drew, not only the sentinel-
		// terminated ones: the sentinel phase's verification draws small
		// sentinel-terminated sets too, so that split would still read
		// ~200× if the IM-Sentinel phase drew full sets.
		{"Fig3", "HIST+SUBSIM mean size of full/all RR sets", 4, func(t *testing.T) (float64, float64) {
			g := benchGraph(t, 5000, 8, "wcvariant")
			gen := &splitGen{Generator: subsim.NewRRGenerator(g, subsim.GenSubsim), c: new(splitCounts)}
			claimRun(t, gen, subsim.AlgHISTSubsim)
			fs, fn := gen.c.fullSets.Load(), gen.c.fullNodes.Load()
			ss, sn := gen.c.sentSets.Load(), gen.c.sentNodes.Load()
			if ss == 0 {
				t.Fatal("HIST drew no sentinel-terminated RR sets")
			}
			t.Logf("%d full sets of %.1f nodes, %d sentinel-terminated sets of %.1f",
				fs, float64(fn)/float64(fs), ss, float64(sn)/float64(ss))
			return float64(fn) / float64(fs), float64(fn+sn) / float64(fs+ss)
		}},
		{"Fig4", "OPIM-C+SUBSIM/HIST+SUBSIM RR nodes generated", 2, func(t *testing.T) (float64, float64) {
			g := benchGraph(t, 5000, 8, "wcvariant")
			opimc := claimRun(t, subsim.NewRRGenerator(g, subsim.GenSubsim), subsim.AlgSUBSIM)
			hist := claimRun(t, subsim.NewRRGenerator(g, subsim.GenSubsim), subsim.AlgHISTSubsim)
			return float64(opimc.RRStats.Nodes), float64(hist.RRStats.Nodes)
		}},
		{"Fig1", "OPIM-C/SUBSIM edges examined", 3, func(t *testing.T) (float64, float64) {
			g := benchGraph(t, 5000, 8, "wc")
			opimc := claimRun(t, subsim.NewRRGenerator(g, subsim.GenVanilla), subsim.AlgOPIMC)
			sub := claimRun(t, subsim.NewRRGenerator(g, subsim.GenSubsim), subsim.AlgSUBSIM)
			return float64(opimc.RRStats.EdgesExamined), float64(sub.RRStats.EdgesExamined)
		}},
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			num, den := c.measure(t)
			ratio := num / den
			t.Logf("%s: %.1f / %.1f = %.1f× (floor %g×)", c.ratio, num, den, ratio, c.floor)
			if !(ratio >= c.floor) {
				t.Errorf("%s = %.2f×, below the %g× floor", c.ratio, ratio, c.floor)
			}
		})
	}
}

// edgesPerSet draws 2000 RR sets from the same seed with each generator
// and returns the edges each examined per set, vanilla first. SUBSIM is
// built first because on skewed weights it sorts the graph's in-edges,
// which vanilla then walks in the same order on every run.
func edgesPerSet(g *subsim.Graph) (vanilla, sub float64) {
	sg := subsim.NewRRGenerator(g, subsim.GenSubsim)
	vg := subsim.NewRRGenerator(g, subsim.GenVanilla)
	per := func(gen subsim.RRGenerator) float64 {
		r := rng.New(3)
		for i := 0; i < 2000; i++ {
			rrset.GenerateRandom(gen, r, nil)
		}
		st := gen.Stats()
		return float64(st.EdgesExamined) / float64(st.Sets)
	}
	return per(vg), per(sg)
}

// claimRun runs alg over gen with the options every Fig. 1, 3 and 4 row
// shares. MaximizeWith over NewRRGenerator is what Maximize runs for
// these algorithms.
func claimRun(t *testing.T, gen subsim.RRGenerator, alg subsim.Algorithm) *subsim.Result {
	t.Helper()
	res, err := subsim.MaximizeWith(gen, alg, subsim.Options{K: 50, Eps: 0.2, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// splitCounts tallies RR sets and their nodes apart by whether the
// caller passed a sentinel set.
type splitCounts struct {
	fullSets, fullNodes, sentSets, sentNodes atomic.Int64
}

// splitGen counts every GenerateInto of the wrapped generator into c;
// clones share c, so the tally covers all of a run's workers. HIST draws
// full RR sets only to choose its sentinel set.
type splitGen struct {
	rrset.Generator
	c *splitCounts
}

func (s *splitGen) Clone() rrset.Generator {
	return &splitGen{Generator: s.Generator.Clone(), c: s.c}
}

func (s *splitGen) GenerateInto(a *rrset.Arena, r *rng.Source, root int32, sentinel []bool) []int32 {
	set := s.Generator.GenerateInto(a, r, root, sentinel)
	if sentinel == nil {
		s.c.fullSets.Add(1)
		s.c.fullNodes.Add(int64(len(set)))
	} else {
		s.c.sentSets.Add(1)
		s.c.sentNodes.Add(int64(len(set)))
	}
	return set
}
