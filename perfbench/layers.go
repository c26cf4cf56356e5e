package main

import (
	"slices"
	"sync"
	"time"

	"subsim"
	"subsim/internal/graph"
	"subsim/internal/obs"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// setCounts totals the RR sets of one traversal mode.
type setCounts struct {
	sets, nodes, edges int64
}

// genSlot is what one generator instance (a batcher worker's clone)
// records: the interval of every GenerateInto call, its busy time, and
// counters split by mode — full sets (no sentinel) and
// sentinel-terminated sets, with how many of the latter hit a sentinel.
type genSlot struct {
	intervals  []interval
	busyNS     int64
	full, sent setCounts
	hits       int64
}

// genRecorder owns the slots of one run's generator and all its clones.
type genRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	slots []*genSlot
}

// timedGen times every GenerateInto of the wrapped generator at the
// rrset.Generator boundary. Clones get their own slot, so the batcher's
// workers never share one; the other methods delegate unchanged, so a
// run through the wrapper returns the same result as the bare
// generator.
type timedGen struct {
	rrset.Generator
	rec  *genRecorder
	slot *genSlot
}

func (rec *genRecorder) wrap(g rrset.Generator) *timedGen {
	s := &genSlot{}
	rec.mu.Lock()
	rec.slots = append(rec.slots, s)
	rec.mu.Unlock()
	return &timedGen{Generator: g, rec: rec, slot: s}
}

func (t *timedGen) Clone() rrset.Generator { return t.rec.wrap(t.Generator.Clone()) }

func (t *timedGen) GenerateInto(a *rrset.Arena, r *rng.Source, root int32, sentinel []bool) []int32 {
	before := t.Generator.Stats()
	t0 := int64(time.Since(t.rec.epoch))
	set := t.Generator.GenerateInto(a, r, root, sentinel)
	t1 := int64(time.Since(t.rec.epoch))
	after := t.Generator.Stats()

	s := t.slot
	s.intervals = append(s.intervals, interval{t0, t1})
	s.busyNS += t1 - t0
	c := &s.full
	if sentinel != nil {
		c = &s.sent
		if after.SentinelHits > before.SentinelHits {
			s.hits++
		}
	}
	c.sets++
	c.nodes += int64(len(set))
	c.edges += after.EdgesExamined - before.EdgesExamined
	return set
}

// layerTotals accumulates per-layer time (ns) and counts over traced
// runs. Times are wall-clock: generation is the union of the workers'
// GenerateInto intervals, and each span total is the sum of that span's
// instances in the run report.
type layerTotals struct {
	runs          int
	wallNS        int64 // the benchmark's own span around each run
	genNS         int64 // union of generation intervals
	busyNS        int64 // generation time summed over workers
	ingestNS      int64 // sampling spans minus generation inside them
	selectNS      int64 // selection spans (CSR build + CELF)
	checkNS       int64 // bound-check spans
	verifySelfNS  int64 // HIST verify spans minus generation inside them
	verifyNS      int64
	sentinelNS    int64 // HIST sentinel-phase span
	residualNS    int64 // HIST residual-phase span
	unattributed  int64 // wall minus the union of everything above
	full, sent    setCounts
	hits          int64
	rounds        int64
	sentinelNodes int64
}

// add accounts one traced run: its wall span [lo, hi), the generator
// recorder, and the result's span tree.
func (lt *layerTotals) add(lo, hi int64, rec *genRecorder, res *subsim.Result) {
	var gen []interval
	for _, s := range rec.slots {
		gen = append(gen, s.intervals...)
		lt.busyNS += s.busyNS
		lt.full.add(s.full)
		lt.sent.add(s.sent)
		lt.hits += s.hits
	}
	gen = union(gen)

	spans := map[string][]interval{}
	var walk func(s *obs.SpanSnapshot)
	walk = func(s *obs.SpanSnapshot) {
		spans[s.Name] = append(spans[s.Name], interval{s.StartNS, s.StartNS + s.DurationNS})
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range res.Report.Spans {
		walk(s)
	}
	sampling := union(spans["sampling"])
	verify := union(spans["verify"])
	selection := spans["selection"]
	check := spans["bound-check"]

	attributed := union(slices.Concat(gen, sampling, verify, selection, check))

	lt.runs++
	lt.wallNS += hi - lo
	lt.genNS += length(gen)
	lt.ingestNS += length(sampling) - overlap(gen, sampling)
	lt.verifyNS += length(verify)
	lt.verifySelfNS += length(verify) - overlap(gen, verify)
	lt.selectNS += length(union(selection))
	lt.checkNS += length(union(check))
	lt.sentinelNS += length(union(spans["sentinel-phase"]))
	lt.residualNS += length(union(spans["residual-phase"]))
	lt.unattributed += (hi - lo) - length(attributed)
	lt.rounds += int64(res.Rounds)
	lt.sentinelNodes += int64(res.SentinelSize)
}

func (c *setCounts) add(o setCounts) {
	c.sets += o.sets
	c.nodes += o.nodes
	c.edges += o.edges
}

// probeResult is one generator's cost over the probe's RR sets.
type probeResult struct {
	nsPerSet, edgesPerSet float64
}

// probeGenerator draws sets RR sets from fresh generators of each kind
// over g, the i-th set from RNG seed seed+i for both kinds, and returns
// their per-set cost: the generation-only comparison of the paper's
// Figure 2.
func probeGenerator(g *graph.Graph, kind subsim.GeneratorKind, sets int, seed uint64) probeResult {
	gen := subsim.NewRRGenerator(g, kind)
	a := rrset.NewArena(0, 0)
	src := rng.New(seed)
	t0 := time.Now()
	for i := 0; i < sets; i++ {
		a.Reset()
		src.Seed(seed + uint64(i))
		rrset.GenerateRandomInto(gen, a, src, nil)
	}
	ns := float64(time.Since(t0).Nanoseconds())
	st := gen.Stats()
	return probeResult{nsPerSet: ns / float64(sets), edgesPerSet: float64(st.EdgesExamined) / float64(sets)}
}
