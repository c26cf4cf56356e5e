// Command servesmoke is the end-to-end smoke gate for the live
// telemetry plane (make serve-smoke). It drives the real binaries the
// way an operator would:
//
//  1. generate a small graph with graphgen,
//  2. start `imrun -bound tight -serve 127.0.0.1:0` on it with enough
//     -repeat iterations to keep the run alive while we scrape,
//  3. assert every plane endpoint answers 200 (and /readyz flips from
//     graph readiness), that subsim_rr_sets_total is present, parseable
//     and strictly increases across scrapes of the live run, that the
//     published sample budgets are ordered (0 < subsim_theta_tight <=
//     subsim_theta_worst), that /progress reports a non-empty phase
//     mid-run, that /trace serves a well-formed trace-event document
//     with complete events on a named worker track, that /events serves
//     a schema-versioned flight journal carrying run events, and that
//     GET /debug/bundle writes a complete diagnostic bundle whose
//     manifest validates on disk,
//  4. capture /report and check `obsdiff report report` exits 0
//     (self-compare is clean) while the committed regressed fixture
//     pair exits 1 (the gate actually fails on regressions),
//  5. shut the run down and make sure the plane goes away with it.
//
// It exits 0 on success, 1 on any assertion failure, 2 on usage/setup
// errors. All scratch files live in a temp dir.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

// tools holds the paths of the prebuilt binaries under test.
type tools struct {
	graphgen string
	imrun    string
	obsdiff  string
}

func run() int {
	var t tools
	flag.StringVar(&t.graphgen, "graphgen", "bin/graphgen", "graphgen binary")
	flag.StringVar(&t.imrun, "imrun", "bin/imrun", "imrun binary")
	flag.StringVar(&t.obsdiff, "obsdiff", "bin/obsdiff", "obsdiff binary")
	fixtures := flag.String("fixtures", "internal/obsdiff/testdata", "dir with base.json/regressed.json")
	timeout := flag.Duration("timeout", 60*time.Second, "overall deadline")
	flag.Parse()

	for _, bin := range []string{t.graphgen, t.imrun, t.obsdiff} {
		if _, err := os.Stat(bin); err != nil {
			fmt.Fprintf(os.Stderr, "servesmoke: missing binary %s (run via `make serve-smoke`)\n", bin)
			return 2
		}
	}
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: %v\n", err)
		return 2
	}
	defer func() { _ = os.RemoveAll(dir) }()

	deadline := time.Now().Add(*timeout)
	if err := smoke(t, dir, *fixtures, deadline); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL: %v\n", err)
		return 1
	}
	fmt.Println("servesmoke: ok")
	return 0
}

func smoke(t tools, dir, fixtures string, deadline time.Time) error {
	// 1. A graph small enough to run in milliseconds but big enough
	// that 400 repeats keep the plane scrapeable for a while.
	graph := filepath.Join(dir, "g.bin")
	gen := exec.Command(t.graphgen, "-type", "pa", "-n", "3000", "-deg", "4", "-model", "wc", "-out", graph)
	if out, err := gen.CombinedOutput(); err != nil {
		return fmt.Errorf("graphgen: %v\n%s", err, out)
	}

	// 2. Long-lived imrun with the plane on an ephemeral port.
	imrun := exec.Command(t.imrun,
		"-graph", graph, "-alg", "opimc", "-k", "20", "-eps", "0.3",
		"-bound", "tight", "-mc", "0", "-repeat", "400", "-serve", "127.0.0.1:0",
		"-flight-dir", dir)
	stderr, err := imrun.StderrPipe()
	if err != nil {
		return err
	}
	imrun.Stdout = io.Discard
	if err := imrun.Start(); err != nil {
		return fmt.Errorf("start imrun: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- imrun.Wait() }()
	waited := false
	stopImrun := func() {
		_ = imrun.Process.Kill()
		if !waited {
			<-done
			waited = true
		}
	}
	defer stopImrun()

	addr, err := scanServeAddr(stderr, deadline)
	if err != nil {
		return err
	}
	base := "http://" + addr

	// 3. Endpoint sweep. /readyz may legitimately 503 before the graph
	// loads, so poll it to 200 first — after that everything must be 200.
	if err := waitReady(base, deadline); err != nil {
		return err
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/progress", "/progress?spans=1", "/report", "/timeline", "/debug/vars", "/events"} {
		if _, err := get(base+path, http.StatusOK); err != nil {
			return err
		}
	}

	if err := checkSetsMonotone(base, deadline); err != nil {
		return err
	}
	if err := checkBudgets(base, deadline); err != nil {
		return err
	}
	if err := checkProgressLive(base, deadline); err != nil {
		return err
	}
	if err := checkTrace(base); err != nil {
		return err
	}
	if err := checkEvents(base, deadline); err != nil {
		return err
	}
	if err := checkBundle(base); err != nil {
		return err
	}

	// 4. Capture a live report and gate obsdiff both ways.
	report, err := get(base+"/report", http.StatusOK)
	if err != nil {
		return err
	}
	reportPath := filepath.Join(dir, "report.json")
	if err := os.WriteFile(reportPath, report, 0o644); err != nil {
		return err
	}
	if err := expectExit(t.obsdiff, 0, reportPath, reportPath); err != nil {
		return fmt.Errorf("self-compare: %v", err)
	}
	if err := expectExit(t.obsdiff, 1,
		filepath.Join(fixtures, "base.json"), filepath.Join(fixtures, "regressed.json")); err != nil {
		return fmt.Errorf("regressed fixture: %v", err)
	}

	// 5. Tear down: once imrun dies the plane must stop answering.
	stopImrun()
	if _, err := http.Get(base + "/healthz"); err == nil {
		return fmt.Errorf("plane still serving after imrun exit")
	}
	return nil
}

// scanServeAddr reads imrun's stderr until the "serving telemetry on
// ADDR" banner appears, then keeps draining the pipe in the background
// so imrun never blocks on a full stderr buffer.
func scanServeAddr(stderr io.Reader, deadline time.Time) (string, error) {
	type result struct {
		addr string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "imrun: serving telemetry on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				ch <- result{addr: addr}
				// Keep draining.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- result{err: fmt.Errorf("imrun exited before announcing the telemetry address (scan err: %v)", sc.Err())}
	}()
	select {
	case r := <-ch:
		return r.addr, r.err
	case <-time.After(time.Until(deadline)):
		return "", fmt.Errorf("timed out waiting for the telemetry banner")
	}
}

// waitReady polls /readyz until it returns 200 (graph loaded).
func waitReady(base string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("/readyz never reached 200")
}

// get fetches a URL and asserts the status code, returning the body.
func get(url string, wantStatus int) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		return nil, fmt.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	return body, nil
}

// checkSetsMonotone scrapes /metrics until subsim_rr_sets_total has
// strictly increased at least once, asserting it never goes backwards.
func checkSetsMonotone(base string, deadline time.Time) error {
	var last int64 = -1
	increased := false
	for time.Now().Before(deadline) {
		body, err := get(base+"/metrics", http.StatusOK)
		if err != nil {
			return err
		}
		sets, err := scrapeCounter(body, "subsim_rr_sets_total")
		if err != nil {
			return err
		}
		if last >= 0 && sets < last {
			return fmt.Errorf("rr_sets_total went backwards: %d -> %d", last, sets)
		}
		if last >= 0 && sets > last {
			increased = true
			break
		}
		last = sets
		time.Sleep(20 * time.Millisecond)
	}
	if !increased {
		return fmt.Errorf("rr_sets_total never increased during the run")
	}
	return nil
}

// checkBudgets polls /metrics until the run publishes its sample
// budgets, then asserts the tightened one is ordered: 0 < theta_tight
// <= theta_worst.
func checkBudgets(base string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		body, err := get(base+"/metrics", http.StatusOK)
		if err != nil {
			return err
		}
		worst, err := scrapeCounter(body, "subsim_theta_worst")
		if err != nil {
			return err
		}
		if worst == 0 {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		tight, err := scrapeCounter(body, "subsim_theta_tight")
		if err != nil {
			return err
		}
		if tight < 1 || tight > worst {
			return fmt.Errorf("budgets not ordered: theta_tight %d, theta_worst %d", tight, worst)
		}
		return nil
	}
	return fmt.Errorf("run never published subsim_theta_worst > 0")
}

// scrapeCounter pulls one un-labelled series value out of a Prometheus
// text exposition.
func scrapeCounter(body []byte, name string) (int64, error) {
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("exposition missing %s", name)
}

// checkProgressLive polls /progress until it reports a non-empty phase
// with a started run — i.e. the live view actually tracks the run.
func checkProgressLive(base string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		body, err := get(base+"/progress", http.StatusOK)
		if err != nil {
			return err
		}
		var prog struct {
			Schema      string `json:"schema"`
			Phase       string `json:"phase"`
			RunsStarted int64  `json:"runs_started"`
			RRSets      int64  `json:"rr_sets"`
		}
		if err := json.Unmarshal(body, &prog); err != nil {
			return fmt.Errorf("/progress is not JSON: %v", err)
		}
		if prog.Schema != "subsim.progress" {
			return fmt.Errorf("/progress schema = %q", prog.Schema)
		}
		if prog.Phase != "" && prog.RunsStarted > 0 && prog.RRSets > 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("/progress never showed a live phase mid-run")
}

// checkTrace fetches the Perfetto trace export mid-run and asserts it
// is a well-formed trace-event document with real content: complete
// ("X") events present and at least one named worker track. Runs after
// checkSetsMonotone, so RR generation has demonstrably happened and the
// timeline cannot legitimately be empty.
func checkTrace(base string) error {
	body, err := get(base+"/trace", http.StatusOK)
	if err != nil {
		return err
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("/trace is not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		return fmt.Errorf("/trace displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	complete, workerTrack := 0, false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "M":
			if ev.Name == "thread_name" && strings.HasPrefix(ev.Args.Name, "worker ") {
				workerTrack = true
			}
		}
	}
	if complete == 0 {
		return fmt.Errorf("/trace has no complete events mid-run")
	}
	if !workerTrack {
		return fmt.Errorf("/trace names no worker track")
	}
	return nil
}

// checkEvents polls the flight journal endpoint until it reports run
// events, validating the schema envelope and the ?n= tail contract.
func checkEvents(base string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		body, err := get(base+"/events?n=4", http.StatusOK)
		if err != nil {
			return err
		}
		var doc struct {
			Schema  string `json:"schema"`
			Version int    `json:"version"`
			Written int64  `json:"written"`
			Events  []struct {
				Kind string `json:"kind"`
			} `json:"events"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("/events is not JSON: %v", err)
		}
		if doc.Schema != "subsim.flight-journal" || doc.Version != 1 {
			return fmt.Errorf("/events envelope = %q v%d", doc.Schema, doc.Version)
		}
		if len(doc.Events) > 4 {
			return fmt.Errorf("/events?n=4 returned %d events", len(doc.Events))
		}
		if doc.Written > 0 && len(doc.Events) > 0 {
			for _, ev := range doc.Events {
				if ev.Kind == "" || ev.Kind == "none" {
					return fmt.Errorf("/events carries an untyped event: %s", body)
				}
			}
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("/events never showed journal events mid-run")
}

// checkBundle triggers a diagnostic bundle over HTTP and validates the
// returned manifest shape against the bundle on disk: schema-versioned,
// reason "http", and every artifact present without producer errors.
func checkBundle(base string) error {
	body, err := get(base+"/debug/bundle", http.StatusOK)
	if err != nil {
		return err
	}
	var doc struct {
		Path    string `json:"path"`
		Schema  string `json:"schema"`
		Version int    `json:"version"`
		Reason  string `json:"reason"`
		Files   []struct {
			Name  string `json:"name"`
			Bytes int64  `json:"bytes"`
			Error string `json:"error"`
		} `json:"files"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("/debug/bundle is not JSON: %v", err)
	}
	if doc.Schema != "subsim.flight-bundle" || doc.Version != 1 {
		return fmt.Errorf("/debug/bundle envelope = %q v%d", doc.Schema, doc.Version)
	}
	if doc.Reason != "http" {
		return fmt.Errorf("/debug/bundle reason = %q, want http", doc.Reason)
	}
	want := map[string]bool{
		"report.json": false, "spans.json": false, "trace.json": false,
		"metrics.prom": false, "journal.json": false, "history.json": false,
		"goroutines.txt": false, "heap.pprof": false,
	}
	for _, f := range doc.Files {
		if f.Error != "" {
			return fmt.Errorf("bundle artifact %s failed: %s", f.Name, f.Error)
		}
		if _, ok := want[f.Name]; ok {
			want[f.Name] = true
		}
		if fi, err := os.Stat(filepath.Join(doc.Path, f.Name)); err != nil {
			return fmt.Errorf("bundle artifact %s missing on disk: %v", f.Name, err)
		} else if fi.Size() != f.Bytes {
			return fmt.Errorf("bundle artifact %s: manifest says %d bytes, disk has %d", f.Name, f.Bytes, fi.Size())
		}
	}
	for name, seen := range want {
		if !seen {
			return fmt.Errorf("bundle manifest missing artifact %s", name)
		}
	}
	if _, err := os.Stat(filepath.Join(doc.Path, "manifest.json")); err != nil {
		return fmt.Errorf("bundle manifest.json missing on disk: %v", err)
	}
	return nil
}

// expectExit runs obsdiff on two reports and asserts its exit code.
func expectExit(obsdiff string, want int, base, next string) error {
	cmd := exec.Command(obsdiff, base, next)
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			return fmt.Errorf("obsdiff: %v\n%s", err, out)
		}
		code = ee.ExitCode()
	}
	if code != want {
		return fmt.Errorf("obsdiff %s %s: exit %d, want %d\n%s", base, next, code, want, out)
	}
	return nil
}
