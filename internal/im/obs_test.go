package im

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"subsim/internal/obs"
	"subsim/internal/rrset"
)

// TestBatcherWorkerCountInvariance is the determinism regression test:
// with a fixed seed the Batcher must produce identical RR sets — and
// therefore identical merged generator stats — no matter how many
// workers partition the work, because every set draws from an RNG
// stream derived from its global index alone.
func TestBatcherWorkerCountInvariance(t *testing.T) {
	g := testGraph(t, 400)
	const seed, count = 77, 600
	var refSets []rrset.RRSet
	var refStats rrset.Stats
	for _, workers := range []int{1, 2, 3, 8} {
		b := NewBatcher(rrset.NewSubsim(g), seed, workers)
		sets := b.Generate(count, nil)
		if len(sets) != count {
			t.Fatalf("workers=%d: generated %d sets, want %d", workers, len(sets), count)
		}
		st := b.Stats()
		if st.Sets != count {
			t.Fatalf("workers=%d: stats counted %d sets, want %d", workers, st.Sets, count)
		}
		if workers == 1 {
			refSets, refStats = sets, st
			continue
		}
		if st != refStats {
			t.Errorf("workers=%d: merged stats %+v differ from workers=1 %+v", workers, st, refStats)
		}
		for i := range sets {
			if !reflect.DeepEqual(sets[i], refSets[i]) {
				t.Fatalf("workers=%d: set %d = %v, workers=1 produced %v", workers, i, sets[i], refSets[i])
			}
		}
	}
}

// TestBatcherStatsBaselineDelta: two batchers sharing one generator
// instance (as HIST's two phases do) must each report only their own
// generation cost.
func TestBatcherStatsBaselineDelta(t *testing.T) {
	g := testGraph(t, 200)
	gen := rrset.NewVanilla(g)
	b1 := NewBatcher(gen, 1, 2)
	b1.Generate(100, nil)
	s1 := b1.Stats()
	if s1.Sets != 100 {
		t.Fatalf("phase 1 stats %+v", s1)
	}
	b2 := NewBatcher(gen, 2, 2)
	b2.Generate(40, nil)
	if s2 := b2.Stats(); s2.Sets != 40 {
		t.Errorf("phase 2 stats counted %d sets, want 40 (no leakage from phase 1)", s2.Sets)
	}
	// b1 still owns worker 0 = gen, so later draws through gen can only
	// grow its view; it must never shrink or double-count retroactively.
	if s1b := b1.Stats(); s1b.Sets < 100 {
		t.Errorf("phase 1 stats shrank after phase 2: %+v", s1b)
	}
}

// TestAlgorithmsEmitReports: with a tracer attached, every algorithm
// returns a schema-versioned report whose span tree contains the
// documented phase names, the RR counters the batcher reports per lane
// and per batch match Result.RRStats, the per-worker set counts sum to
// its Sets, and every worker that drew sets reports busy time.
func TestAlgorithmsEmitReports(t *testing.T) {
	g := testGraph(t, 300)
	cases := []struct {
		name  string
		alg   algFunc
		spans []string
	}{
		{"OPIM-C", OPIMC, []string{"opimc", "sampling", "selection", "bound-check"}},
		{"IMM", IMM, []string{"imm", "opt-estimation", "node-selection", "sampling", "selection"}},
		{"SSA", SSA, []string{"ssa", "sampling", "selection"}},
		{"TIM+", TIMPlus, []string{"timplus", "kpt-estimation", "refinement", "node-selection"}},
	}
	for _, c := range cases {
		tr := obs.NewTracer()
		opt := Options{K: 10, Eps: 0.3, Seed: 5, Workers: 2, Tracer: tr}
		res, err := c.alg(rrset.NewVanilla(g), opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Report == nil {
			t.Fatalf("%s: Result.Report nil with tracer attached", c.name)
		}
		if res.Report.Schema != obs.Schema || res.Report.Version != obs.SchemaVersion {
			t.Errorf("%s: report schema %q v%d", c.name, res.Report.Schema, res.Report.Version)
		}
		for _, name := range c.spans {
			if res.Report.Span(name) == nil {
				t.Errorf("%s: span %q missing from report", c.name, name)
			}
		}
		checkRRReport(t, c.name, res.Report, res.RRStats)
	}
}

// checkRRReport asserts that a traced run's report counts exactly the RR
// generation in st: the four RR counters equal its fields, the
// per-worker set counts sum to its Sets, and every worker that drew sets
// has positive busy time.
func checkRRReport(t *testing.T, name string, rep *obs.Report, st rrset.Stats) {
	t.Helper()
	for _, c := range []struct {
		counter string
		want    int64
	}{
		{"rr_sets_total", st.Sets},
		{"rr_nodes_total", st.Nodes},
		{"rr_edges_examined_total", st.EdgesExamined},
		{"sentinel_hits_total", st.SentinelHits},
	} {
		if got := rep.Counters[c.counter]; got != c.want {
			t.Errorf("%s: %s=%d, RRStats says %d", name, c.counter, got, c.want)
		}
	}
	if len(rep.WorkerBusy) != len(rep.WorkerSets) {
		t.Fatalf("%s: %d worker busy totals for %d worker set counts", name, len(rep.WorkerBusy), len(rep.WorkerSets))
	}
	var sum int64
	for w, sets := range rep.WorkerSets {
		sum += sets
		if sets > 0 && rep.WorkerBusy[w] <= 0 {
			t.Errorf("%s: worker %d drew %d sets with busy ns %d", name, w, sets, rep.WorkerBusy[w])
		}
	}
	if sum != st.Sets {
		t.Errorf("%s: worker set counts %v sum to %d, RRStats.Sets=%d", name, rep.WorkerSets, sum, st.Sets)
	}
}

// TestTracerDoesNotChangeResults: attaching a tracer must not perturb
// the algorithm at any worker count: the same seeds, RR accounting and
// rounds, and bit-identical estimates and certified bounds, with the
// vanilla and the SUBSIM generator.
func TestTracerDoesNotChangeResults(t *testing.T) {
	g := testGraph(t, 300)
	gens := []struct {
		name string
		mk   func() rrset.Generator
	}{
		{"vanilla", func() rrset.Generator { return rrset.NewVanilla(g) }},
		{"subsim", func() rrset.Generator { return rrset.NewSubsim(g) }},
	}
	for _, gen := range gens {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", gen.name, workers), func(t *testing.T) {
				base := Options{K: 8, Eps: 0.3, Seed: 11, Workers: workers}
				plain, err := OPIMC(gen.mk(), base)
				if err != nil {
					t.Fatal(err)
				}
				traced := base
				traced.Tracer = obs.NewTracer()
				obsRes, err := OPIMC(gen.mk(), traced)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain.Seeds, obsRes.Seeds) {
					t.Errorf("tracer changed the seed set: %v vs %v", plain.Seeds, obsRes.Seeds)
				}
				if plain.RRStats != obsRes.RRStats {
					t.Errorf("tracer changed the RR accounting: %+v vs %+v", plain.RRStats, obsRes.RRStats)
				}
				if plain.Rounds != obsRes.Rounds {
					t.Errorf("tracer changed the rounds: %d vs %d", plain.Rounds, obsRes.Rounds)
				}
				for _, f := range []struct {
					name          string
					plain, traced float64
				}{
					{"Influence", plain.Influence, obsRes.Influence},
					{"LowerBound", plain.LowerBound, obsRes.LowerBound},
					{"UpperBound", plain.UpperBound, obsRes.UpperBound},
					{"Approx", plain.Approx, obsRes.Approx},
				} {
					if math.Float64bits(f.plain) != math.Float64bits(f.traced) {
						t.Errorf("tracer changed %s: %v vs %v", f.name, f.plain, f.traced)
					}
				}
			})
		}
	}
}

// TestAlgorithmWorkerCountInvariance lifts the batcher guarantee to the
// full algorithms: identical results for workers=1 and workers=8.
func TestAlgorithmWorkerCountInvariance(t *testing.T) {
	g := testGraph(t, 300)
	for name, alg := range algorithms {
		opt1 := Options{K: 8, Eps: 0.3, Seed: 21, Workers: 1}
		opt8 := Options{K: 8, Eps: 0.3, Seed: 21, Workers: 8}
		r1, err := alg(rrset.NewVanilla(g), opt1)
		if err != nil {
			t.Fatal(err)
		}
		r8, err := alg(rrset.NewVanilla(g), opt8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Seeds, r8.Seeds) {
			t.Errorf("%s: seeds differ across worker counts: %v vs %v", name, r1.Seeds, r8.Seeds)
		}
		if r1.RRStats != r8.RRStats {
			t.Errorf("%s: stats differ across worker counts: %+v vs %+v", name, r1.RRStats, r8.RRStats)
		}
		if r1.Influence != r8.Influence {
			t.Errorf("%s: influence differs across worker counts: %v vs %v", name, r1.Influence, r8.Influence)
		}
	}
}
