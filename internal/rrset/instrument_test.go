package rrset

import (
	"io"
	"testing"

	"subsim/internal/graph"
	"subsim/internal/obs"
	"subsim/internal/obs/timeline"
	"subsim/internal/rng"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	r := rng.New(42)
	g, err := graph.GenPreferentialAttachment(300, 4, false, r)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	return g
}

// TestInstrumentMatchesStats checks that the metric-set totals agree
// exactly with the wrapped generator's own Stats counters.
func TestInstrumentMatchesStats(t *testing.T) {
	g := testGraph(t)
	for name, bare := range allGenerators(g) {
		m := obs.NewMetricSet()
		gen := Instrument(bare, m, m.WorkerSets(0))
		r := rng.New(1)
		const draws = 500
		for i := 0; i < draws; i++ {
			GenerateRandom(gen, r, nil)
		}
		st := gen.Stats()
		if st.Sets != draws || m.Sets.Load() != draws {
			t.Fatalf("%s: sets stats=%d metrics=%d, want %d", name, st.Sets, m.Sets.Load(), draws)
		}
		if m.Nodes.Load() != st.Nodes {
			t.Errorf("%s: nodes metrics=%d stats=%d", name, m.Nodes.Load(), st.Nodes)
		}
		if m.Edges.Load() != st.EdgesExamined {
			t.Errorf("%s: edges metrics=%d stats=%d", name, m.Edges.Load(), st.EdgesExamined)
		}
		if m.RRSize.Count() != draws || m.RRSize.Sum() != st.Nodes {
			t.Errorf("%s: rr-size histogram count=%d sum=%d, want %d/%d",
				name, m.RRSize.Count(), m.RRSize.Sum(), draws, st.Nodes)
		}
		if m.EdgesPerSet.Count() != draws || m.EdgesPerSet.Sum() != st.EdgesExamined {
			t.Errorf("%s: edges-per-set histogram count=%d sum=%d, want %d/%d",
				name, m.EdgesPerSet.Count(), m.EdgesPerSet.Sum(), draws, st.EdgesExamined)
		}
		if got := m.WorkerSets(0).Load(); got != draws {
			t.Errorf("%s: worker counter %d, want %d", name, got, draws)
		}
	}
}

// TestInstrumentNilMetricSet: a nil metric set must return the generator
// unchanged — the zero-overhead disabled path.
func TestInstrumentNilMetricSet(t *testing.T) {
	g := graph.GenLine(5, 1)
	bare := NewVanilla(g)
	if got := Instrument(bare, nil, nil); got != Generator(bare) {
		t.Fatal("Instrument(gen, nil, nil) did not return the bare generator")
	}
}

// TestInstrumentSentinelHits checks that sentinel-truncated sets are
// counted both in Stats.SentinelHits and in the metric counter.
func TestInstrumentSentinelHits(t *testing.T) {
	const n = 20
	g := graph.GenComplete(n, 1) // p=1: every traversal reaches everything
	sentinel := make([]bool, n)
	sentinel[3] = true
	for name, bare := range allGenerators(g) {
		m := obs.NewMetricSet()
		gen := Instrument(bare, m, nil)
		r := rng.New(2)
		const draws = 50
		for i := 0; i < draws; i++ {
			GenerateRandom(gen, r, sentinel)
		}
		// With p=1 and a sentinel on a complete graph every set is
		// truncated (or rooted) at the sentinel.
		if st := gen.Stats(); st.SentinelHits != draws {
			t.Errorf("%s: Stats.SentinelHits = %d, want %d", name, st.SentinelHits, draws)
		}
		if got := m.SentinelHits.Load(); got != draws {
			t.Errorf("%s: metric SentinelHits = %d, want %d", name, got, draws)
		}
	}
}

// TestInstrumentSkipHistogram checks that wrapping a Subsim generator
// wires the geometric-skip-length histogram.
func TestInstrumentSkipHistogram(t *testing.T) {
	g := testGraph(t) // WC: equal in-probabilities, geometric path active
	m := obs.NewMetricSet()
	gen := Instrument(NewSubsim(g), m, nil)
	r := rng.New(3)
	for i := 0; i < 2000; i++ {
		GenerateRandom(gen, r, nil)
	}
	if m.SkipLen.Count() == 0 {
		t.Fatal("skip-length histogram empty after SUBSIM generation under WC")
	}
}

// TestInstrumentClone: clones must feed the same metric set.
func TestInstrumentClone(t *testing.T) {
	g := testGraph(t)
	m := obs.NewMetricSet()
	gen := Instrument(NewVanilla(g), m, nil)
	clone := gen.Clone()
	if _, ok := clone.(*Instrumented); !ok {
		t.Fatalf("clone of Instrumented is %T, want *Instrumented", clone)
	}
	r := rng.New(4)
	GenerateRandom(gen, r, nil)
	GenerateRandom(clone, r, nil)
	if got := m.Sets.Load(); got != 2 {
		t.Errorf("metric Sets = %d after one draw on gen and clone each, want 2", got)
	}
}

// TestInstrumentTimelineRecords: with a timeline on the metric set,
// InstrumentWorker must record exactly one PhaseGenerate interval per
// set on the worker's own ring, and the interval durations must sum to
// the same busy time the worker-busy gauge reports.
func TestInstrumentTimelineRecords(t *testing.T) {
	g := testGraph(t)
	m := obs.NewMetricSet()
	m.Timeline = timeline.New(4096, nil)
	gen := InstrumentWorker(NewSubsim(g), m, 3)
	r := rng.New(11)
	const draws = 100
	for i := 0; i < draws; i++ {
		GenerateRandom(gen, r, nil)
	}
	ring := m.TimelineRing(3)
	if ring.Written() != draws {
		t.Fatalf("ring Written = %d, want %d", ring.Written(), draws)
	}
	snap := m.Timeline.Snapshot()
	var busy int64
	count := 0
	for _, rec := range snap.Records {
		if rec.Worker != 3 {
			t.Fatalf("record on worker %d, want 3", rec.Worker)
		}
		if rec.Phase != timeline.PhaseGenerate {
			t.Fatalf("record phase %v, want generate", rec.Phase)
		}
		if rec.EndNS < rec.StartNS {
			t.Fatalf("record %#v runs backwards", rec)
		}
		busy += rec.EndNS - rec.StartNS
		count++
	}
	if count != draws {
		t.Fatalf("snapshot has %d records, want %d", count, draws)
	}
	if got := m.WorkerBusyNS(3).Load(); got != busy {
		t.Errorf("worker busy gauge %d != timeline busy sum %d", got, busy)
	}
}

// TestInstrumentTimelineGenerateIntoAllocFree pins the timeline
// acceptance bar on the hot path: steady-state GenerateInto with a ring
// attached performs zero allocations per set — recording is pure
// atomics.
func TestInstrumentTimelineGenerateIntoAllocFree(t *testing.T) {
	g := testGraph(t)
	m := obs.NewMetricSet()
	m.Timeline = timeline.New(4096, nil)
	gen := InstrumentWorker(NewSubsim(g), m, 0)
	a := NewArena(0, 0)
	r := rng.New(12)
	for i := 0; i < 3; i++ {
		a.Reset()
		for j := 0; j < 200; j++ {
			GenerateRandomInto(gen, a, r, nil)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		a.Reset()
		for j := 0; j < 200; j++ {
			GenerateRandomInto(gen, a, r, nil)
		}
	})
	if allocs > 0 {
		t.Errorf("timeline-instrumented GenerateInto allocated %.1f objects per 200 sets, want 0", allocs)
	}
}

// TestStatsSub checks the baseline-delta arithmetic the Batcher relies
// on.
func TestStatsSub(t *testing.T) {
	s := Stats{Sets: 10, Nodes: 50, EdgesExamined: 70, SentinelHits: 4}
	s.Sub(Stats{Sets: 3, Nodes: 20, EdgesExamined: 30, SentinelHits: 1})
	if s != (Stats{Sets: 7, Nodes: 30, EdgesExamined: 40, SentinelHits: 3}) {
		t.Fatalf("Sub result %+v", s)
	}
}

// BenchmarkInstrumentedGenerate compares RR generation bare, through a
// nil-metric-set wrapper (which must unwrap to the bare generator), and
// with metrics enabled. The nil path must be within noise of bare — the
// <5%-overhead claim of the observability layer's disabled mode — and
// the enabled path shows the true cost of staying observable. The
// worker-timed variant adds the busy-ns clock reads of InstrumentWorker
// (what imrun -serve actually installs), and live-scraped measures the
// worst case for the telemetry plane: a goroutine rendering the full
// Prometheus exposition in a tight loop while generation runs, i.e. the
// writer side under continuous lock-free reader pressure.
//
// Run with: go test ./internal/rrset -bench InstrumentedGenerate -benchmem
func BenchmarkInstrumentedGenerate(b *testing.B) {
	g := testGraph(b)
	run := func(b *testing.B, gen Generator) {
		r := rng.New(99)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			GenerateRandom(gen, r, nil)
		}
	}
	b.Run("bare", func(b *testing.B) {
		run(b, NewSubsim(g))
	})
	b.Run("nil-wrapped", func(b *testing.B) {
		run(b, Instrument(NewSubsim(g), nil, nil))
	})
	b.Run("metrics-on", func(b *testing.B) {
		m := obs.NewMetricSet()
		run(b, Instrument(NewSubsim(g), m, m.WorkerSets(0)))
	})
	b.Run("worker-timed", func(b *testing.B) {
		m := obs.NewMetricSet()
		run(b, InstrumentWorker(NewSubsim(g), m, 0))
	})
	b.Run("timeline-on", func(b *testing.B) {
		// Worker timing plus per-set interval recording into the timeline
		// ring — the full execution-timeline cost. The acceptance bar is
		// ≤2% over worker-timed: a Record is seven uncontended atomics.
		m := obs.NewMetricSet()
		m.Timeline = timeline.New(0, nil)
		run(b, InstrumentWorker(NewSubsim(g), m, 0))
	})
	b.Run("live-scraped", func(b *testing.B) {
		m := obs.NewMetricSet()
		stop := make(chan struct{})
		scraped := make(chan struct{})
		go func() {
			defer close(scraped)
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.WritePrometheus(io.Discard)
				}
			}
		}()
		run(b, InstrumentWorker(NewSubsim(g), m, 0))
		b.StopTimer()
		close(stop)
		<-scraped
	})
}
