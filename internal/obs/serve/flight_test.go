package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"subsim/internal/obs"
	"subsim/internal/obs/flight"
)

// flightPlane builds a plane over a tracer with an attached flight
// recorder (sampler off for determinism) and a few journal events.
func flightPlane(t *testing.T, dir string) (*Plane, *obs.Flight) {
	t.Helper()
	tr := obs.NewTracer()
	clock := int64(0)
	tr.SetClock(func() int64 { clock += 10; return clock })
	fl := tr.EnableFlight(obs.FlightConfig{Dir: dir, Tool: "servetest", SampleEvery: -1})
	t.Cleanup(fl.Close)
	rec := fl.Journal().Stream(flight.StreamRun)
	for i := int64(0); i < 5; i++ {
		rec.Emit(flight.KindRoundDone, "opimc", i, 0, 0, 0, 0)
	}
	return New(tr), fl
}

func TestEventsWithoutFlight(t *testing.T) {
	p := deterministicPlane()
	if rec := get(t, p, "/events"); rec.Code != http.StatusNotFound {
		t.Errorf("/events without flight = %d, want 404", rec.Code)
	}
	if rec := get(t, p, "/debug/bundle"); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/bundle without flight = %d, want 404", rec.Code)
	}
}

func TestEventsEndpoint(t *testing.T) {
	p, _ := flightPlane(t, t.TempDir())
	rec := get(t, p, "/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("/events = %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		Schema    string         `json:"schema"`
		Version   int            `json:"version"`
		Written   int64          `json:"written"`
		Truncated bool           `json:"truncated"`
		Events    []flight.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("parse /events: %v", err)
	}
	if doc.Schema != EventsSchema || doc.Version != EventsVersion {
		t.Errorf("envelope = %q v%d", doc.Schema, doc.Version)
	}
	if doc.Written != 5 || len(doc.Events) != 5 || doc.Truncated {
		t.Errorf("full tail = written %d, %d events, truncated %v", doc.Written, len(doc.Events), doc.Truncated)
	}

	// ?n= keeps the newest events and marks the truncation.
	rec = get(t, p, "/events?n=2")
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 2 || !doc.Truncated {
		t.Fatalf("?n=2 returned %d events, truncated %v", len(doc.Events), doc.Truncated)
	}
	if doc.Events[1].A != 4 || doc.Events[0].A != 3 {
		t.Errorf("?n=2 must keep the newest events, got %+v", doc.Events)
	}

	// ?n=0 means everything. (Fresh doc: truncated is omitempty, so a
	// stale true would survive re-unmarshal.)
	doc.Truncated = false
	rec = get(t, p, "/events?n=0")
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 5 || doc.Truncated {
		t.Errorf("?n=0 = %d events, truncated %v", len(doc.Events), doc.Truncated)
	}

	for _, bad := range []string{"/events?n=-1", "/events?n=zero"} {
		if rec := get(t, p, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", bad, rec.Code)
		}
	}
}

func TestBundleEndpoint(t *testing.T) {
	dir := t.TempDir()
	p, _ := flightPlane(t, dir)
	rec := get(t, p, "/debug/bundle")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/bundle = %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		Path string `json:"path"`
		flight.Manifest
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("parse /debug/bundle: %v", err)
	}
	if doc.Schema != flight.BundleSchema || doc.Version != flight.BundleVersion {
		t.Errorf("manifest envelope = %q v%d", doc.Schema, doc.Version)
	}
	if doc.Reason != "http" || doc.Tool != "servetest" {
		t.Errorf("manifest = reason %q tool %q", doc.Reason, doc.Tool)
	}
	if filepath.Dir(doc.Path) != dir {
		t.Errorf("bundle path %s not under %s", doc.Path, dir)
	}
	// The response manifest matches the one on disk, and the bundle is
	// complete (manifest written last).
	onDisk, err := flight.ReadManifest(doc.Path)
	if err != nil {
		t.Fatalf("on-disk manifest: %v", err)
	}
	if len(onDisk.Files) != len(doc.Files) {
		t.Errorf("response lists %d files, disk has %d", len(doc.Files), len(onDisk.Files))
	}
	listed := map[string]bool{}
	for _, f := range onDisk.Files {
		if f.Error != "" {
			t.Errorf("artifact %s failed: %s", f.Name, f.Error)
		}
		listed[f.Name] = true
		if fi, err := os.Stat(filepath.Join(doc.Path, f.Name)); err != nil {
			t.Errorf("artifact %s missing on disk: %v", f.Name, err)
		} else if fi.Size() != f.Bytes {
			t.Errorf("artifact %s: manifest says %d bytes, disk has %d", f.Name, f.Bytes, fi.Size())
		}
	}
	for _, name := range []string{"report.json", "spans.json", "trace.json", "metrics.prom",
		"journal.json", "history.json", "goroutines.txt", "heap.pprof"} {
		if !listed[name] {
			t.Errorf("manifest does not list %s", name)
		}
	}
}
