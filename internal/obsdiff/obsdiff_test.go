package obsdiff

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"subsim/internal/obs"
)

func mustLoad(t *testing.T, path string) *obs.Report {
	t.Helper()
	r, err := LoadReport(path)
	if err != nil {
		t.Fatalf("LoadReport(%s): %v", path, err)
	}
	return r
}

func TestSelfCompareIsClean(t *testing.T) {
	base := mustLoad(t, "testdata/base.json")
	d := Compare(base, base, Options{Tolerance: 0.15, SpanFloorNS: 1e6})
	if d.Regressions != 0 {
		t.Fatalf("self-compare found %d regressions: %+v", d.Regressions, d.Deltas)
	}
	for _, dl := range d.Deltas {
		if dl.Change != 0 {
			t.Errorf("self-compare delta %s/%s has change %v", dl.Kind, dl.Name, dl.Change)
		}
	}
}

func TestRegressedFixtureFails(t *testing.T) {
	base := mustLoad(t, "testdata/base.json")
	next := mustLoad(t, "testdata/regressed.json")
	d := Compare(base, next, Options{Tolerance: 0.15, SpanFloorNS: 1e6})

	want := map[string]bool{ // kind/name -> must be regressed
		"span/opimc":                      true,
		"span/sampling":                   true,
		"span/round-1":                    false, // +12.5% inside tolerance
		"span/selection":                  false, // +10% inside tolerance
		"span/bound-check":                false, // +80% but below the 1ms floor
		"counter/rr_edges_examined_total": true,
		"per-set/rr_nodes_per_set":        false, // nodes and sets unchanged
		"per-set/rr_edges_per_set":        true,  // +80% edges at equal sets
		"histogram/rr_edges_per_set":      true,
		"histogram/rr_size":               false,
	}
	got := map[string]bool{}
	for _, dl := range d.Deltas {
		got[dl.Kind+"/"+dl.Name] = dl.Regressed
	}
	for key, regressed := range want {
		v, ok := got[key]
		if !ok {
			t.Errorf("missing delta %s", key)
			continue
		}
		if v != regressed {
			t.Errorf("%s: regressed=%v, want %v", key, v, regressed)
		}
	}
	if d.Regressions != 5 {
		t.Errorf("Regressions = %d, want 5", d.Regressions)
	}

	// The floor exemption must be annotated.
	for _, dl := range d.Deltas {
		if dl.Kind == "span" && dl.Name == "bound-check" && dl.Note != "below-floor" {
			t.Errorf("bound-check note = %q, want below-floor", dl.Note)
		}
	}
}

func TestRunExitCodes(t *testing.T) {
	var buf bytes.Buffer
	if code := Run([]string{"testdata/base.json", "testdata/base.json"}, &buf); code != 0 {
		t.Fatalf("self-compare exit = %d, want 0\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "ok: within") {
		t.Errorf("missing ok summary in:\n%s", buf.String())
	}

	buf.Reset()
	if code := Run([]string{"testdata/base.json", "testdata/regressed.json"}, &buf); code != 1 {
		t.Fatalf("regressed compare exit = %d, want 1\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Errorf("missing REGRESSED marker in:\n%s", buf.String())
	}

	buf.Reset()
	if code := Run([]string{"testdata/base.json"}, &buf); code != 2 {
		t.Fatalf("missing-arg exit = %d, want 2", code)
	}
	buf.Reset()
	if code := Run([]string{"testdata/base.json", "testdata/nosuch.json"}, &buf); code != 2 {
		t.Fatalf("missing-file exit = %d, want 2", code)
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if code := Run([]string{"-json", "testdata/base.json", "testdata/regressed.json"}, &buf); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var d Diff
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if d.Schema != DiffSchema || d.Version != DiffSchemaVersion {
		t.Errorf("schema = %q v%d, want %q v%d", d.Schema, d.Version, DiffSchema, DiffSchemaVersion)
	}
	if d.Regressions != 5 {
		t.Errorf("Regressions = %d, want 5", d.Regressions)
	}
}

func TestSchemaValidation(t *testing.T) {
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"schema":"other","version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil {
		t.Fatal("LoadReport accepted wrong schema")
	}
	badVer := t.TempDir() + "/badver.json"
	if err := os.WriteFile(badVer, []byte(`{"schema":"subsim.run-report","version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(badVer); err == nil {
		t.Fatal("LoadReport accepted wrong version")
	}
}
