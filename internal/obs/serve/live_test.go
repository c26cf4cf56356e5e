package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"subsim/internal/graph"
	"subsim/internal/im"
	"subsim/internal/obs"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// TestConcurrentScrapeDuringRun is the live-read contract test: an
// OPIM-C run with 8 generation workers races against goroutines hammering
// /metrics, /progress(?spans=1) and /report the whole time. Under -race
// this proves the scrape path never trips over the run's span and metric
// writes, and the assertions prove the scraped counters are monotone, the
// sample budget gets published, /progress tracks the live run, and every
// body parses as the document it claims to be.
func TestConcurrentScrapeDuringRun(t *testing.T) {
	g, err := graph.GenPreferentialAttachment(3000, 4, false, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()

	tr := obs.NewTracer()
	p := New(tr)
	p.SetGraphLoaded(true)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var scrapes int
	var lastSets int64
	var sawBudget, sawLive bool
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}

	// fetch GETs path once and runs check on a 200 body.
	fetch := func(path string, check func(body []byte)) bool {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			fail("%s: %v", path, err)
			return false
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			fail("%s read: %v", path, err)
			return false
		}
		if resp.StatusCode != http.StatusOK {
			fail("%s status %d", path, resp.StatusCode)
			return false
		}
		check(body)
		mu.Lock()
		scrapes++
		mu.Unlock()
		return true
	}
	scrape := func(path string, check func(body []byte)) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !fetch(path, check) {
				return
			}
		}
	}

	// series pulls one unlabelled series value out of an exposition.
	series := func(body []byte, name string) (int64, bool) {
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
				if err != nil {
					fail("parse %s %q: %v", name, v, err)
				}
				return n, err == nil
			}
		}
		fail("scrape missing %s", name)
		return 0, false
	}

	checkMetrics := func(body []byte) {
		// rr_sets_total must be present and monotone across scrapes.
		if sets, ok := series(body, "subsim_rr_sets_total"); ok {
			mu.Lock()
			if sets < lastSets {
				t.Errorf("rr_sets_total went backwards: %d -> %d", lastSets, sets)
			}
			lastSets = sets
			mu.Unlock()
		}
		if worst, ok := series(body, "subsim_theta_worst"); ok && worst > 0 {
			mu.Lock()
			sawBudget = true
			mu.Unlock()
		}
	}
	checkProgress := func(body []byte) {
		var prog Progress
		if err := json.Unmarshal(body, &prog); err != nil {
			fail("progress unmarshal: %v", err)
			return
		}
		if prog.Phase != "" && prog.RunsStarted > 0 && prog.RRSets > 0 {
			mu.Lock()
			sawLive = true
			mu.Unlock()
		}
	}

	wg.Add(3)
	go scrape("/metrics", checkMetrics)
	go scrape("/progress?spans=1", checkProgress)
	go scrape("/report", func(body []byte) {
		var rep obs.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			fail("report unmarshal: %v", err)
		}
	})

	// One /progress scrape also runs from inside generation, so at least
	// one lands mid-run however the host schedules the scrapers.
	gen := &scrapeMidRun{Generator: rrset.NewSubsim(g), m: tr.Metrics(), once: new(sync.Once),
		scrape: func() { fetch("/progress", checkProgress) }}
	p.RunStarted()
	res, err := im.OPIMC(gen, im.Options{
		K: 20, Eps: 0.3, Seed: 42, Workers: 8, Tracer: tr,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 20 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	if scrapes == 0 {
		t.Error("no scrape completed during the run")
	}
	// The budget stays published after the run, so this scrape sees it
	// even if no concurrent one did.
	fetch("/metrics", checkMetrics)
	if !sawBudget {
		t.Error("no /metrics scrape showed subsim_theta_worst > 0")
	}
	if !sawLive {
		t.Error("no mid-run /progress scrape showed a phase, a started run and RR sets")
	}
	// After the run the live view agrees with the final report.
	final := tr.Metrics().Sets.Load()
	if final < lastSets {
		t.Errorf("final sets %d < last scraped %d", final, lastSets)
	}
	if prog := p.Snapshot(false); prog.RRSets != final {
		t.Errorf("snapshot sets %d != metric %d", prog.RRSets, final)
	}
}

// scrapeMidRun calls scrape once, from inside the run: at the first RR
// set drawn after a batch was published to m's rr_sets counter.
type scrapeMidRun struct {
	rrset.Generator
	m      *obs.MetricSet
	once   *sync.Once
	scrape func()
}

func (s *scrapeMidRun) Clone() rrset.Generator {
	return &scrapeMidRun{Generator: s.Generator.Clone(), m: s.m, once: s.once, scrape: s.scrape}
}

func (s *scrapeMidRun) GenerateInto(a *rrset.Arena, r *rng.Source, root int32, sentinel []bool) []int32 {
	if s.m.Sets.Load() > 0 {
		s.once.Do(s.scrape)
	}
	return s.Generator.GenerateInto(a, r, root, sentinel)
}
