package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// deterministicTracer builds the same trace every time: a fixed fake
// clock, fixed metadata, and a fixed metric load.
func deterministicTracer() *Tracer {
	tr := NewTracer()
	tr.SetClock(fakeClock(0, 100))
	tr.SetMeta("algorithm", "hist")
	tr.SetMeta("k", int64(50))
	tr.SetMeta("eps", 0.1)

	run := tr.Span("hist")
	p1 := run.Child("sentinel-phase")
	r1 := p1.Child(Round(1))
	r1.Child("sampling").End()
	r1.Child("selection").End()
	r1.Child("bound-check").SetFloat("approx", 0.5).End()
	r1.SetInt("theta", 64).End()
	p1.SetInt("sentinels", 3).End()
	p2 := run.Child("residual-phase")
	p2.SetFloat("sentinel_hit_rate", 0.25).End()
	run.SetInt("rounds", 1).End()

	m := tr.Metrics()
	m.AddBatch(0, 3, 7, 12, 1, 300)
	m.AddBatch(1, 1, 3, 5, 0, 100)
	for _, v := range []int64{1, 2, 3, 4} {
		m.IndexBuild.Observe(v)
	}
	return tr
}

// TestReportGolden locks the JSON schema: any incompatible change to the
// report document shape must bump SchemaVersion and regenerate the
// golden with `go test ./internal/obs -run Golden -update`.
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := deterministicTracer().Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

func TestReportSchemaFields(t *testing.T) {
	rep := deterministicTracer().Report()
	if rep.Schema != Schema || rep.Version != SchemaVersion {
		t.Errorf("schema = %q v%d, want %q v%d", rep.Schema, rep.Version, Schema, SchemaVersion)
	}
	c := rep.Counters
	if c["rr_sets_total"] != 4 || c["rr_nodes_total"] != 10 || c["rr_edges_examined_total"] != 17 || c["sentinel_hits_total"] != 1 {
		t.Errorf("counters wrong: %v", rep.Counters)
	}
	if h := rep.Histograms["index_build_ns"]; h.Count != 4 || h.Sum != 10 {
		t.Errorf("index_build_ns histogram = %+v", h)
	}
	if len(rep.WorkerSets) != 2 || rep.WorkerSets[0] != 3 || rep.WorkerSets[1] != 1 {
		t.Errorf("worker sets = %v, want [3 1]", rep.WorkerSets)
	}
	if len(rep.WorkerBusy) != 2 || rep.WorkerBusy[0] != 300 || rep.WorkerBusy[1] != 100 {
		t.Errorf("worker busy ns = %v, want [300 100]", rep.WorkerBusy)
	}
	for _, name := range []string{"hist", "sentinel-phase", "residual-phase", "round-1", "sampling", "selection", "bound-check"} {
		if rep.Span(name) == nil {
			t.Errorf("span %q missing from report", name)
		}
	}
}

func TestAggregateSpans(t *testing.T) {
	rep := deterministicTracer().Report()
	aggs := rep.AggregateSpans()
	byName := map[string]SpanAgg{}
	var order []string
	for _, a := range aggs {
		byName[a.Name] = a
		order = append(order, a.Name)
	}
	if order[0] != "hist" || order[1] != "sentinel-phase" {
		t.Errorf("first-seen order wrong: %v", order)
	}
	if a := byName["sampling"]; a.Count != 1 || a.TotalNS <= 0 {
		t.Errorf("sampling agg = %+v", a)
	}
	if byName["hist"].Total() <= byName["sampling"].Total() {
		t.Error("root total not larger than leaf total")
	}
}

func TestWritePrometheus(t *testing.T) {
	tr := deterministicTracer()
	var live bytes.Buffer
	if err := tr.Metrics().WritePrometheus(&live); err != nil {
		t.Fatal(err)
	}
	out := live.String()
	for _, want := range []string{
		"subsim_rr_sets_total 4",
		"subsim_sentinel_hits_total 1",
		"subsim_index_build_ns_sum 10",
		"subsim_index_build_ns_count 4",
		`subsim_index_build_ns_bucket{le="+Inf"} 4`,
		`subsim_worker_sets_total{worker="0"} 3`,
		`subsim_worker_sets_total{worker="1"} 1`,
		`subsim_worker_busy_ns_total{worker="0"} 300`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live prometheus dump missing %q\n%s", want, out)
		}
	}
	// Cumulative buckets: index_build_ns has 1,2,3,4 -> le=1:1, le=3:3,
	// +Inf:4.
	for _, want := range []string{
		`subsim_index_build_ns_bucket{le="1"} 1`,
		`subsim_index_build_ns_bucket{le="3"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cumulative bucket missing %q\n%s", want, out)
		}
	}
}
