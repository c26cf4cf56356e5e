package core

import (
	"reflect"
	"testing"

	"subsim/internal/im"
	"subsim/internal/obs"
	"subsim/internal/rrset"
)

// TestHISTReport checks the acceptance shape of a traced HIST run: both
// phase spans with per-round children, the sentinel hit-rate attribute,
// the batcher's per-batch RR counters agreeing with the result's RR
// accounting across both phases, sentinel hits surfaced both as a stat
// and a counter, and per-worker set counts and busy time.
func TestHISTReport(t *testing.T) {
	g := highInfluenceGraph(t, 1500)
	tr := obs.NewTracer()
	opt := im.Options{K: 20, Eps: 0.2, Seed: 5, Workers: 2, Tracer: tr}
	res, err := HIST(rrset.NewSubsim(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("Result.Report nil with tracer attached")
	}
	if rep.Schema != obs.Schema || rep.Version != obs.SchemaVersion {
		t.Errorf("schema %q v%d", rep.Schema, rep.Version)
	}
	root := rep.Span("hist")
	if root == nil {
		t.Fatal("hist root span missing")
	}
	p1 := root.Find("sentinel-phase")
	p2 := root.Find("residual-phase")
	if p1 == nil || p2 == nil {
		t.Fatalf("phase spans missing: sentinel=%v residual=%v", p1 != nil, p2 != nil)
	}
	if p1.Find("round-1") == nil {
		t.Error("sentinel-phase has no per-round span")
	}
	for _, phase := range []*obs.SpanSnapshot{p1, p2} {
		if phase.Find("sampling") == nil || phase.Find("selection") == nil {
			t.Errorf("%s lacks sampling/selection children", phase.Name)
		}
	}
	if _, ok := p1.Attrs["sentinels"]; !ok {
		t.Error("sentinel-phase missing 'sentinels' attribute")
	}
	if rate, ok := p2.Attrs["sentinel_hit_rate"].(float64); !ok || rate < 0 || rate > 1 {
		t.Errorf("residual-phase sentinel_hit_rate = %v (%v)", p2.Attrs["sentinel_hit_rate"], ok)
	}
	if res.RRStats.SentinelHits <= 0 {
		t.Error("HIST residual phase recorded no sentinel hits in RRStats")
	}
	st := res.RRStats
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
			t.Errorf("%s=%d, RRStats says %d", c.counter, got, c.want)
		}
	}
	if len(rep.WorkerSets) != 2 || len(rep.WorkerBusy) != 2 {
		t.Fatalf("per-worker totals: sets %v, busy ns %v, want 2 workers each", rep.WorkerSets, rep.WorkerBusy)
	}
	var sum int64
	for w, sets := range rep.WorkerSets {
		sum += sets
		if sets > 0 && rep.WorkerBusy[w] <= 0 {
			t.Errorf("worker %d drew %d sets with busy ns %d", w, sets, rep.WorkerBusy[w])
		}
	}
	if sum != st.Sets {
		t.Errorf("worker set counts %v sum to %d, RRStats.Sets=%d", rep.WorkerSets, sum, st.Sets)
	}
}

// TestHISTTracerNeutrality: tracing must not change HIST's output, and
// worker count must not either.
func TestHISTTracerNeutrality(t *testing.T) {
	g := highInfluenceGraph(t, 1200)
	base := im.Options{K: 15, Eps: 0.25, Seed: 9, Workers: 2}
	plain, err := HIST(rrset.NewVanilla(g), base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Tracer = obs.NewTracer()
	tr, err := HIST(rrset.NewVanilla(g), traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Seeds, tr.Seeds) || plain.RRStats != tr.RRStats {
		t.Error("tracer perturbed HIST's result")
	}
	wide := base
	wide.Workers = 8
	w8, err := HIST(rrset.NewVanilla(g), wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Seeds, w8.Seeds) || plain.RRStats != w8.RRStats {
		t.Errorf("worker count perturbed HIST: seeds %v vs %v, stats %+v vs %+v",
			plain.Seeds, w8.Seeds, plain.RRStats, w8.RRStats)
	}
}
