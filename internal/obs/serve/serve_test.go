package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"subsim/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// deterministicPlane builds a plane over a tracer with a fixed fake
// clock and a deterministic metric fill, with runtime metrics and debug
// off so /metrics is byte-stable.
func deterministicPlane() *Plane {
	tr := obs.NewTracer()
	clock := int64(-10)
	tr.SetClock(func() int64 { clock += 10; return clock })

	run := tr.Span("opimc")
	s := run.Child("sampling")
	s.SetInt("theta", 1024)
	s.End()
	r1 := run.Child("round-1")
	r1.SetFloat("approx", 0.75)
	// round-1 left open: the live views must report it as the current phase.

	m := tr.Metrics()
	for i := 0; i < 4; i++ {
		m.IndexBuild.Observe(int64(1 << i))
	}
	m.AddBatch(0, 3, 11, 33, 1, 1_500_000_000)
	m.AddBatch(1, 1, 4, 12, 0, 500_000_000)
	m.SetBounds(1, 120.5, 200, 0.6025)

	epoch := time.Unix(1000, 0)
	now := epoch
	p := NewWithOptions(tr, Options{Now: func() time.Time { return now }})
	now = epoch.Add(2 * time.Second) // every later read sees 2s of uptime
	p.SetGraphLoaded(true)
	p.RunStarted()
	return p
}

func get(t *testing.T, p *Plane, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	return rec
}

func TestMetricsGolden(t *testing.T) {
	p := deterministicPlane()
	rec := get(t, p, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != promContentType {
		t.Fatalf("content-type = %q, want %q", ct, promContentType)
	}
	got := rec.Body.Bytes()
	golden := "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// A second scrape of an unchanged plane must be byte-identical:
	// ordering is deterministic, not map-random.
	if again := get(t, p, "/metrics").Body.Bytes(); !bytes.Equal(got, again) {
		t.Error("two scrapes of an idle plane differ")
	}
}

func TestMetricsExpositionShape(t *testing.T) {
	body := get(t, deterministicPlane(), "/metrics").Body.String()
	for _, want := range []string{
		"subsim_rr_sets_total 4",
		"subsim_bound_lower 120.5",
		"subsim_bound_approx 0.6025",
		"subsim_round 1",
		`subsim_worker_sets_total{worker="0"} 3`,
		`subsim_worker_busy_ns_total{worker="1"} 500000000`,
		`subsim_worker_utilization{worker="0"} 0.75`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every HELP line has a matching TYPE line.
	help, typ := 0, 0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# HELP") {
			help++
		}
		if strings.HasPrefix(line, "# TYPE") {
			typ++
		}
	}
	if help == 0 || help != typ {
		t.Errorf("HELP lines = %d, TYPE lines = %d", help, typ)
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	tr := obs.NewTracer()
	p := NewWithOptions(tr, Options{})
	if rec := get(t, p, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", rec.Code)
	}
	if rec := get(t, p, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before graph load = %d, want 503", rec.Code)
	}
	p.SetGraphLoaded(true)
	rec := get(t, p, "/readyz")
	if rec.Code != http.StatusOK {
		t.Errorf("/readyz after graph load = %d, want 200", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["ready"] != true {
		t.Errorf("ready = %v, want true", doc["ready"])
	}
}

func TestProgressSnapshot(t *testing.T) {
	p := deterministicPlane()
	rec := get(t, p, "/progress?spans=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var prog Progress
	if err := json.Unmarshal(rec.Body.Bytes(), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Schema != ProgressSchema || prog.Version != ProgressSchemaVersion {
		t.Errorf("schema = %q v%d", prog.Schema, prog.Version)
	}
	if prog.Phase != "opimc/round-1" {
		t.Errorf("phase = %q, want opimc/round-1", prog.Phase)
	}
	if prog.RRSets != 4 || prog.SentinelHits != 1 {
		t.Errorf("rr_sets = %d, sentinel_hits = %d", prog.RRSets, prog.SentinelHits)
	}
	if prog.LowerBound != 120.5 || prog.UpperBound != 200 || prog.Round != 1 {
		t.Errorf("bounds = [%v, %v] round %d", prog.LowerBound, prog.UpperBound, prog.Round)
	}
	if len(prog.Spans) == 0 {
		t.Fatal("?spans=1 returned no spans")
	}
	if r1 := prog.Spans[0].Find("round-1"); r1 == nil || !r1.Open {
		t.Errorf("round-1 span missing or not open: %+v", r1)
	}
	if !prog.GraphLoaded || prog.RunsStarted != 1 {
		t.Errorf("graph_loaded = %v, runs_started = %d", prog.GraphLoaded, prog.RunsStarted)
	}
	// Without ?spans=1 the span forest is omitted.
	var lean Progress
	if err := json.Unmarshal(get(t, p, "/progress").Body.Bytes(), &lean); err != nil {
		t.Fatal(err)
	}
	if len(lean.Spans) != 0 {
		t.Errorf("plain /progress embedded %d spans", len(lean.Spans))
	}
}

func TestProgressSSE(t *testing.T) {
	p := deterministicPlane()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/progress?sse=1&interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	var data string
	for sc.Scan() && events < 2 {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			events++
		}
	}
	if events < 2 {
		t.Fatalf("saw %d SSE events, want >= 2 (scan err: %v)", events, sc.Err())
	}
	var prog Progress
	if err := json.Unmarshal([]byte(data), &prog); err != nil {
		t.Fatalf("SSE data is not progress JSON: %v\n%s", err, data)
	}
	if prog.Phase == "" {
		t.Error("SSE progress has empty phase mid-run")
	}
}

func TestReportEndpoint(t *testing.T) {
	p := deterministicPlane()
	rec := get(t, p, "/report")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var rep obs.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != obs.Schema || rep.Version != obs.SchemaVersion {
		t.Errorf("schema = %q v%d", rep.Schema, rep.Version)
	}
	if rep.Counters["rr_sets_total"] != 4 {
		t.Errorf("rr_sets_total = %d, want 4", rep.Counters["rr_sets_total"])
	}

	// A nil tracer serves 404, not a panic.
	empty := NewWithOptions(nil, Options{})
	if rec := get(t, empty, "/report"); rec.Code != http.StatusNotFound {
		t.Errorf("nil-tracer /report = %d, want 404", rec.Code)
	}
}

func TestNilTracerEndpointsServe(t *testing.T) {
	p := NewWithOptions(nil, Options{RuntimeMetrics: true})
	for _, path := range []string{"/metrics", "/healthz", "/progress", "/"} {
		if rec := get(t, p, path); rec.Code != http.StatusOK {
			t.Errorf("nil-tracer %s = %d, want 200", path, rec.Code)
		}
	}
}

func TestStartAndClose(t *testing.T) {
	p := New(obs.NewTracer())
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	// Debug surface is mounted by New.
	resp, err = http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars = %d", resp.StatusCode)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still serving after Close")
	}
}
