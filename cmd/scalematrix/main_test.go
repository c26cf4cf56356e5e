package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestParseGraphSpec(t *testing.T) {
	good := map[string]graphSpec{
		"pa:20000x8": {kind: "pa", n: 20000, deg: 8},
		"er:500x3":   {kind: "er", n: 500, deg: 3},
	}
	for in, want := range good {
		got, err := parseGraphSpec(in)
		if err != nil {
			t.Fatalf("parseGraphSpec(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("parseGraphSpec(%q) = %+v, want %+v", in, got, want)
		}
		if got.String() != in {
			t.Errorf("String() = %q, want %q", got.String(), in)
		}
	}
	for _, bad := range []string{"", "pa", "pa:20000", "ws:100x4", "pa:1x4", "pa:100x0", "pa:axb"} {
		if _, err := parseGraphSpec(bad); err == nil {
			t.Errorf("parseGraphSpec(%q): want error", bad)
		}
	}
}

// TestAmdahlFitRecovers feeds the fitter synthetic data generated from
// Amdahl's law itself and checks it recovers the serial fraction.
func TestAmdahlFitRecovers(t *testing.T) {
	const t1 = 1e9
	for _, s := range []float64{0, 0.1, 0.5, 0.9, 1} {
		var pts []point
		for _, w := range []int{1, 2, 4, 8} {
			tw := t1 * (s + (1-s)/float64(w))
			pts = append(pts, point{Workers: w, NS: int64(tw)})
		}
		got := amdahlFit(pts, t1)
		if math.Abs(got-s) > 1e-6 {
			t.Errorf("amdahlFit: s=%g recovered as %g", s, got)
		}
	}
}

func TestAmdahlFitDegenerate(t *testing.T) {
	if got := amdahlFit([]point{{Workers: 1, NS: 100}}, 100); got != -1 {
		t.Errorf("no W>1 points: got %g, want -1", got)
	}
	if got := amdahlFit([]point{{Workers: 2, NS: 100}}, 0); got != -1 {
		t.Errorf("t1=0: got %g, want -1", got)
	}
	// Super-linear measurements clamp to 0, slower-than-serial to 1.
	if got := amdahlFit([]point{{Workers: 4, NS: 10}}, 1000); got != 0 {
		t.Errorf("super-linear: got %g, want 0", got)
	}
	if got := amdahlFit([]point{{Workers: 4, NS: 5000}}, 1000); got != 1 {
		t.Errorf("anti-scaling: got %g, want clamp 1", got)
	}
}

func TestMedianInt64(t *testing.T) {
	if got := medianInt64(nil); got != 0 {
		t.Errorf("empty: %d", got)
	}
	if got := medianInt64([]int64{5}); got != 5 {
		t.Errorf("single: %d", got)
	}
	if got := medianInt64([]int64{9, 1, 5}); got != 5 {
		t.Errorf("odd: %d", got)
	}
	in := []int64{9, 1, 5}
	_ = medianInt64(in)
	if in[0] != 9 {
		t.Error("medianInt64 mutated its input")
	}
}

func TestBuildCurves(t *testing.T) {
	cells := []cell{
		{Graph: "pa:100x4", Gen: "subsim", Estimator: "exact", Workers: 2, PhaseNS: map[string]int64{
			"generate": 600, "index-build": 100, "select": 100, "total": 800}},
		{Graph: "pa:100x4", Gen: "subsim", Estimator: "exact", Workers: 1, PhaseNS: map[string]int64{
			"generate": 1000, "index-build": 100, "select": 100, "total": 1200}},
		// A foreign-estimator cell must be filtered out of the sweep.
		{Graph: "pa:100x4", Gen: "subsim", Estimator: "hll", Workers: 1, PhaseNS: map[string]int64{
			"generate": 1, "index-build": 1, "select": 1, "total": 4}},
	}
	curves := buildCurves("pa:100x4", "subsim", "exact", cellsFor(cells, "pa:100x4", "subsim", "exact"))
	if len(curves) != len(phaseNames) {
		t.Fatalf("got %d curves, want %d", len(curves), len(phaseNames))
	}
	gen := curves[0]
	if gen.Phase != "generate" || gen.T1NS != 1000 {
		t.Fatalf("first curve = %+v", gen)
	}
	if len(gen.Points) != 2 || gen.Points[0].Workers != 1 || gen.Points[1].Workers != 2 {
		t.Fatalf("points not sorted by W: %+v", gen.Points)
	}
	if math.Abs(gen.Points[1].Speedup-1000.0/600.0) > 1e-9 {
		t.Errorf("speedup = %g", gen.Points[1].Speedup)
	}
	if math.Abs(gen.Points[1].Efficiency-1000.0/600.0/2) > 1e-9 {
		t.Errorf("efficiency = %g", gen.Points[1].Efficiency)
	}
	// generate: T2/T1 = 0.6, x = 0.5, y = 0.1 → s = 0.2.
	if math.Abs(gen.AmdahlSerialFrac-0.2) > 1e-9 {
		t.Errorf("amdahl = %g, want 0.2", gen.AmdahlSerialFrac)
	}
}

func TestBenchName(t *testing.T) {
	// Exact rows keep the historic names so recorded baselines compare.
	for _, est := range []string{"", "exact"} {
		got := benchName("pa2000x4", "subsim", est, "index-build", 4)
		want := "BenchmarkScaleMatrix_pa2000x4_subsim_indexbuild_W4"
		if got != want {
			t.Errorf("benchName(est=%q) = %q, want %q", est, got, want)
		}
	}
	got := benchName("pa2000x4", "subsim", "hll", "index-build", 4)
	want := "BenchmarkScaleMatrix_pa2000x4_subsim_hll_indexbuild_W4"
	if got != want {
		t.Errorf("benchName = %q, want %q", got, want)
	}
}

// TestRecordBench checks the emitted file parses under cmd/benchjson's
// schema: one row per point with speedup/efficiency extras on W>1 plus
// an Amdahl row, re-recording under the same label replaces the run,
// and the caveat survives.
func TestRecordBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	doc := &resultDoc{
		Recorded:  "2026-01-01T00:00:00Z",
		GoVersion: "go1.24.0",
		Curves: buildCurves("pa:100x4", "subsim", "exact", []cell{
			{Graph: "pa:100x4", Gen: "subsim", Estimator: "exact", Workers: 1, PhaseNS: map[string]int64{
				"generate": 1000, "index-build": 10, "select": 10, "total": 1030}},
			{Graph: "pa:100x4", Gen: "subsim", Estimator: "exact", Workers: 2, PhaseNS: map[string]int64{
				"generate": 600, "index-build": 10, "select": 10, "total": 630}},
		}),
	}
	if err := recordBench(path, "scale-matrix", "single-core host", doc); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchJSONFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != 1 || len(f.Runs) != 1 {
		t.Fatalf("file = %+v", f)
	}
	run := f.Runs[0]
	if run.Caveat != "single-core host" {
		t.Errorf("caveat = %q", run.Caveat)
	}
	// One row per phase × 2 workers plus one Amdahl row per phase.
	if want := 3 * len(phaseNames); len(run.Benchmarks) != want {
		t.Errorf("got %d benchmark rows, want %d", len(run.Benchmarks), want)
	}
	w2 := run.Benchmarks["BenchmarkScaleMatrix_pa100x4_subsim_generate_W2"]
	if w2.NsOp != 600 || w2.Extra["speedup"] == 0 || w2.Extra["efficiency"] == 0 {
		t.Errorf("W2 row = %+v", w2)
	}
	am := run.Benchmarks["BenchmarkScaleMatrix_pa100x4_subsim_generate_W0_Amdahl"]
	if am.Extra["amdahl_serial_frac"] == 0 {
		t.Errorf("Amdahl row = %+v", am)
	}
	// Re-record under the same label: still one run.
	if err := recordBench(path, "scale-matrix", "", doc); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f2 benchJSONFile
	if err := json.Unmarshal(raw, &f2); err != nil {
		t.Fatal(err)
	}
	if len(f2.Runs) != 1 || f2.Runs[0].Caveat != "" {
		t.Fatalf("re-record: runs=%d caveat=%q", len(f2.Runs), f2.Runs[0].Caveat)
	}
}

// TestRunTinyMatrix drives the full pipeline end to end on a tiny matrix
// and checks the artifacts: schema-stamped JSON with timeline digests,
// valid curves, the worker-independence assertion passing, and a
// Perfetto trace for the last cell.
func TestRunTinyMatrix(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "matrix.json")
	reportPath := filepath.Join(dir, "report.json")
	tracePath := filepath.Join(dir, "trace.json")
	err := run("pa:500x4", "subsim", "exact,hll", "1,2", 1, 600, 2, 5, 7,
		jsonPath, filepath.Join(dir, "bench.json"), "tiny", reportPath, tracePath, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "subsim.scalematrix" || doc.SchemaVersion != 1 {
		t.Fatalf("schema = %q v%d", doc.Schema, doc.SchemaVersion)
	}
	// 2 estimators × 2 worker counts.
	if len(doc.Cells) != 4 {
		t.Fatalf("got %d cells", len(doc.Cells))
	}
	perEst := map[string]int{}
	for _, c := range doc.Cells {
		perEst[c.Estimator]++
		if c.Timeline == nil || c.Timeline.Records == 0 {
			t.Errorf("cell %s W=%d: missing timeline digest", c.Estimator, c.Workers)
		}
		if c.PhaseNS["total"] <= 0 {
			t.Errorf("cell %s W=%d: no total time", c.Estimator, c.Workers)
		}
	}
	if perEst["exact"] != 2 || perEst["hll"] != 2 {
		t.Fatalf("cells per estimator = %v", perEst)
	}
	if len(doc.Curves) != 2*len(phaseNames) {
		t.Fatalf("got %d curves", len(doc.Curves))
	}
	if _, err := os.Stat(reportPath); err != nil {
		t.Errorf("report not written: %v", err)
	}
	traceRaw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceRaw, &trace); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}
