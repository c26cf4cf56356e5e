// Package im implements the sampling-based influence-maximization
// baselines the paper compares against — IMM (Tang et al. 2015), OPIM-C
// (Tang et al. 2018) and SSA (Nguyen et al. 2016, with the corrected
// verification of Huang et al. 2017) — plus a forward-Monte-Carlo CELF
// greedy used to ground-truth tiny graphs in the tests.
//
// Every algorithm is parameterised by an rrset.Generator, so each
// baseline runs with either the vanilla generator (as in the original
// systems) or with SUBSIM (the paper's "SUBSIM" configuration is OPIM-C
// over the SUBSIM generator, see internal/core).
package im

import (
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"time"

	"subsim/internal/bounds"
	"subsim/internal/coverage"
	"subsim/internal/obs"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// Options configures one influence-maximization run.
type Options struct {
	// K is the seed-set size (1 <= K <= n).
	K int
	// Eps is the approximation slack ε of the (1-1/e-ε) guarantee.
	Eps float64
	// Delta is the failure probability; 0 defaults to 1/n.
	Delta float64
	// Seed seeds all randomness; a fixed Seed reproduces a run exactly,
	// independent of Workers (every RR set draws from an RNG stream
	// derived from its global index, see Batcher).
	Seed uint64
	// Workers bounds the RR-generation parallelism; 0 defaults to
	// GOMAXPROCS.
	Workers int
	// Revised enables the Algorithm 6 out-degree tie-break in greedy
	// selection. The baselines default to the classic greedy; HIST
	// always enables it.
	Revised bool
	// Tracer receives phase spans (per doubling round: sampling,
	// selection, bound-check) and low-overhead RR metrics, and produces
	// Result.Report. Nil disables all instrumentation at zero cost —
	// see the obs package's nil-tracer contract.
	Tracer *obs.Tracer
	// Logger receives the structured run events (run.start, round.done,
	// bound.crossed, phase.done, run.done; schema in obs.Run). Nil — the
	// default — is silent and allocation-free, mirroring the nil-tracer
	// contract.
	Logger *slog.Logger
}

// Normalize validates o for a graph of n nodes and fills in the
// defaults. The range checks are written so that NaN fails them too.
func (o *Options) Normalize(n int) error {
	if n < 2 {
		return fmt.Errorf("im: n=%d nodes, need at least 2", n)
	}
	if o.K < 1 || o.K > n {
		return fmt.Errorf("im: k=%d outside [1,%d]", o.K, n)
	}
	if !(o.Eps > 0 && o.Eps < 1) {
		return fmt.Errorf("im: eps=%v outside (0,1)", o.Eps)
	}
	// Below the float64 resolution of the 1-1/e-ε target, ε leaves the
	// target at 1-1/e, as ε = 0 would, while every sample budget, ∝ 1/ε²,
	// exceeds 10³² sets: far more than a collection holds.
	if bounds.GreedyFactor(o.Eps) >= bounds.GreedyFactor(0) {
		return fmt.Errorf("im: eps=%v below the float64 resolution of the 1-1/e-eps target", o.Eps)
	}
	if o.Delta == 0 {
		o.Delta = 1 / float64(n)
	}
	if !(o.Delta > 0 && o.Delta < 1) {
		return fmt.Errorf("im: delta=%v outside (0,1)", o.Delta)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Result reports the outcome and cost accounting of a run.
type Result struct {
	// Seeds is the selected seed set, in selection order. For HIST the
	// sentinel nodes come first.
	Seeds []int32
	// Influence is the algorithm's unbiased coverage-based estimate
	// n·Λ(S)/θ of the expected influence of Seeds.
	Influence float64
	// LowerBound is the certified (1-δ)-confidence lower bound on the
	// influence of Seeds (Equation 1); 0 when the algorithm does not
	// certify one.
	LowerBound float64
	// UpperBound is the certified upper bound on the optimum
	// (Equation 2); 0 when not certified.
	UpperBound float64
	// Approx is LowerBound/UpperBound, the certified approximation
	// ratio at termination.
	Approx float64
	// RRStats aggregates generation cost across all RR collections.
	RRStats rrset.Stats
	// Rounds is the number of doubling iterations executed.
	Rounds int
	// SentinelRR counts the RR sets generated during HIST's sentinel
	// phase (Figure 3a); 0 for other algorithms.
	SentinelRR int64
	// SentinelSize is HIST's |S_b|; 0 for other algorithms.
	SentinelSize int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// ThetaWorstCase is the worst-case RR sample budget θ_max that caps
	// this run's sampling, from the IMM/OPIM-C analysis for its
	// (n, k, ε, δ) (HIST: Equation 4 of its residual phase); 0 when the
	// algorithm does not compute one.
	ThetaWorstCase int64 `json:",omitempty"`
	// Report is the machine-readable observability report (span tree,
	// histograms, counters) when Options.Tracer was set; nil otherwise.
	Report *obs.Report `json:",omitempty"`
}

// Batcher generates RR sets in parallel with deterministic output for a
// fixed seed *independent of the worker count*: the i-th set ever drawn
// through the batcher comes from an RNG stream derived from (seed, i),
// so workers=1 and workers=8 produce identical sets, identical merged
// generator stats, and therefore identical algorithm results. Workers
// only decide how the per-index streams are partitioned.
//
// Each worker generates into its own reusable rrset.Arena (one flat
// []int32 plus per-set offsets), so the steady-state cost of a set is
// the traversal itself — no per-set heap allocation. Workers own
// contiguous global-index ranges in ascending worker order, so visiting
// the arenas worker by worker replays the sets in global-index order.
//
// A batcher built by NewInstrumentedBatcher is the one place RR
// generation is observed. A lane is one worker's share of one Fill or
// Visit; at its end the lane hands the metric set the deltas of its
// generator's own Stats counters and its busy time, one call per lane
// per batch (obs.MetricSet.AddBatch). The generators themselves carry no
// observability code.
type Batcher struct {
	gens   []rrset.Generator
	srcs   []*rng.Source  // one reusable Source per worker, reseeded per set
	arenas []*rrset.Arena // one reusable arena per worker
	base   []rrset.Stats  // per-worker counters at construction; Stats() reports deltas
	seed   uint64
	next   int64 // global index of the next set to generate

	// coldNodes estimates nodes per RR set before any set has been
	// generated (the cold-start reserve); seeded from the graph's average
	// in-degree, since an RR set's expected size tracks how many in-edges
	// a BFS layer fans out over.
	coldNodes int

	// m receives one report per worker lane per batch; nil when the
	// batcher is uninstrumented, and then no lane reads a clock.
	m *obs.MetricSet
	// secGenerate tags the generation section of Fill with pprof labels
	// and a runtime/trace region; nil (the disabled instrument) when the
	// batcher is uninstrumented.
	secGenerate *obs.PhaseSection

	// hitCnt holds one sentinel-hit count per worker lane of Fill, kept
	// on the batcher so steady-state fills allocate nothing.
	hitCnt []int64
}

// NewBatcher builds a parallel generation front-end over gen. The
// generator is cloned per worker; clones share any immutable
// preprocessing (sorted in-edges, bucket samplers).
func NewBatcher(gen rrset.Generator, seed uint64, workers int) *Batcher {
	if workers < 1 {
		workers = 1
	}
	b := &Batcher{
		gens:   make([]rrset.Generator, workers),
		srcs:   make([]*rng.Source, workers),
		arenas: make([]*rrset.Arena, workers),
		base:   make([]rrset.Stats, workers),
		seed:   seed,
		hitCnt: make([]int64, workers),
	}
	if g := gen.Graph(); g != nil {
		cold := int(g.AvgDegree()) + 1
		if cold < 2 {
			cold = 2
		}
		if cold > 64 {
			cold = 64
		}
		b.coldNodes = cold
	} else {
		b.coldNodes = 2
	}
	for w := 0; w < workers; w++ {
		if w == 0 {
			b.gens[w] = gen
		} else {
			b.gens[w] = gen.Clone()
		}
		b.base[w] = b.gens[w].Stats()
		b.srcs[w] = rng.New(seed)
		b.arenas[w] = rrset.NewArena(0, 0)
	}
	return b
}

// NewInstrumentedBatcher is NewBatcher reporting to m: every worker lane
// of every batch adds its sets, nodes, edge examinations, sentinel hits
// and busy time to m once, and Fill's generation section carries pprof
// labels and a runtime/trace region. A nil m yields a plain batcher —
// the zero-overhead disabled path.
func NewInstrumentedBatcher(gen rrset.Generator, seed uint64, workers int, m *obs.MetricSet) *Batcher {
	b := NewBatcher(gen, seed, workers)
	if m == nil {
		return b
	}
	b.m = m
	b.secGenerate = obs.Section("generate", len(b.gens))
	return b
}

// lane is worker w's generator counters and the clock at the start of
// its lane of one batch.
type lane struct {
	before rrset.Stats
	start  time.Time
}

// startLane opens worker w's lane of a batch. An uninstrumented batcher
// reads neither the counters nor the clock.
func (b *Batcher) startLane(w int) lane {
	if b.m == nil {
		return lane{}
	}
	return lane{before: b.gens[w].Stats(), start: time.Now()} //lint:allow timing (feeds the per-worker busy counters only)
}

// endLane reports worker w's lane l to the metric set: the deltas of the
// generator's counters since startLane, and the lane's busy time.
func (b *Batcher) endLane(w int, l lane) {
	if b.m == nil {
		return
	}
	busy := time.Since(l.start).Nanoseconds() //lint:allow timing (feeds the per-worker busy counters only)
	d := b.gens[w].Stats()
	d.Sub(l.before)
	b.m.AddBatch(w, d.Sets, d.Nodes, d.EdgesExamined, d.SentinelHits, busy)
}

// setSeed derives the RNG seed of the set with global index idx from the
// batcher seed, splitmix-style, so per-index streams are decorrelated
// and two batchers with nearby seeds (HIST uses seed and seed+1) do not
// collide.
func setSeed(base uint64, idx int64) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillArenas generates count sets into the per-worker arenas, worker w
// holding the w-th contiguous block of global indices, and returns the
// number of arenas used (a prefix of b.arenas). Arenas are reused across
// calls: steady-state generation performs zero per-set allocations.
//
//subsim:parallel
func (b *Batcher) fillArenas(count int, sentinel []bool) (used int) {
	first := b.next
	b.next += int64(count)
	workers := len(b.gens)
	if count < 4*workers || workers == 1 {
		l := b.startLane(0)
		a := b.arenas[0]
		a.Reset()
		b.reserve(a, 0, count)
		for i := 0; i < count; i++ {
			b.srcs[0].Seed(setSeed(b.seed, first+int64(i)))
			rrset.GenerateRandomInto(b.gens[0], a, b.srcs[0], sentinel)
		}
		b.endLane(0, l)
		return 1
	}
	per := count / workers
	extra := count % workers
	var wg sync.WaitGroup
	offset := int64(0)
	for w := 0; w < workers; w++ {
		cnt := per
		if w < extra {
			cnt++
		}
		wg.Add(1)
		go func(w, cnt int, start int64) {
			defer wg.Done()
			l := b.startLane(w)
			a := b.arenas[w]
			a.Reset()
			b.reserve(a, w, cnt)
			for i := 0; i < cnt; i++ {
				b.srcs[w].Seed(setSeed(b.seed, start+int64(i)))
				rrset.GenerateRandomInto(b.gens[w], a, b.srcs[w], sentinel)
			}
			b.endLane(w, l)
		}(w, cnt, first+offset)
		offset += int64(cnt)
	}
	wg.Wait()
	return workers
}

// reserve pre-grows arena a for cnt more sets drawn through worker w
// from the data: the running average RR-set size (with headroom) tells
// the arena how many node ids the next cnt sets will need, replacing
// amortised doubling with a single up-front growth in the common case.
//
// The average is the larger of worker w's generator average and the
// arena's own average over the sets it already holds. The generator
// average alone under-reserves a persistent shard arena whenever the
// generator also drew smaller sets that never reached the arena — HIST's
// sentinel-terminated verification draws — and an append past the
// reservation regrows and copies the whole arena. Before any set exists
// there is no average, so the cold start falls back to the graph's
// average in-degree (coldNodes) instead of reserving zero nodes and
// eating log2(batch) reallocations.
func (b *Batcher) reserve(a *rrset.Arena, w, cnt int) {
	s := b.gens[w].Stats()
	if s.Sets == 0 && a.Len() == 0 {
		a.Reserve(cnt, cnt*b.coldNodes)
		return
	}
	avg := s.AvgSize()
	if a.Len() > 0 {
		avg = max(avg, float64(a.NumNodes())/float64(a.Len()))
	}
	a.Reserve(cnt, int(avg*float64(cnt)*1.25)+cnt)
}

// Visit generates count random RR sets (uniform roots), stopping each
// traversal at sentinel nodes when sentinel is non-nil, and calls visit
// on each set in deterministic global-index order regardless of the
// worker count. The slices passed to visit are views into reusable
// worker arenas: valid only during the call, copy to retain. A false
// return stops the visiting loop early (all count sets have already
// been generated, so batcher state and stats are unaffected).
func (b *Batcher) Visit(count int, sentinel []bool, visit func(set []int32) bool) {
	if count <= 0 {
		return
	}
	used := b.fillArenas(count, sentinel)
	for w := 0; w < used; w++ {
		a := b.arenas[w]
		for i, n := 0, a.Len(); i < n; i++ {
			if !visit(a.Set(i)) {
				return
			}
		}
	}
}

// Generate produces count random RR sets in deterministic global-index
// order, each freshly allocated and owned by the caller. It is the
// compatibility wrapper over Visit; hot paths (Fill, Visit) avoid the
// per-set copies entirely.
func (b *Batcher) Generate(count int, sentinel []bool) []rrset.RRSet {
	if count <= 0 {
		return nil
	}
	out := make([]rrset.RRSet, 0, count)
	b.Visit(count, sentinel, func(set []int32) bool {
		cp := make(rrset.RRSet, len(set))
		copy(cp, set)
		out = append(out, cp)
		return true
	})
	return out
}

// Stats sums the generation counters across all workers, relative to
// the counters each generator carried when the batcher was built. The
// baseline matters when two batchers share a generator instance — HIST's
// two phases both build a batcher over the caller's generator, and the
// delta semantics keep each phase's accounting disjoint instead of
// double-counting worker 0.
func (b *Batcher) Stats() rrset.Stats {
	var s rrset.Stats
	for w, g := range b.gens {
		s.Add(g.Stats())
		s.Sub(b.base[w])
	}
	return s
}

// ResetStats zeroes the counters on all workers and the baseline.
func (b *Batcher) ResetStats() {
	for w, g := range b.gens {
		g.ResetStats()
		b.base[w] = rrset.Stats{}
	}
}

// MaxSets is the most RR sets one estimator can hold: its postings
// store set ids as int32.
const MaxSets = math.MaxInt32

// setCount converts a sample size computed in floats to a set count,
// failing when it is not a finite number of at most MaxSets sets.
func setCount(name string, t float64) (int64, error) {
	if !(t <= MaxSets) {
		return 0, fmt.Errorf("im: %s=%v RR sets, more than one collection holds (%d)", name, t, MaxSets)
	}
	return int64(math.Ceil(t)), nil
}

// Fill generates count RR sets directly into est's shard-local arenas.
// When sentinel is non-nil, sets that terminated on a sentinel (i.e.
// contain one) are NOT absorbed; instead the number of such hits is
// returned, matching Algorithm 8 line 5 where covered-by-S_b sets are
// excluded from greedy. Fill draws nothing and returns an error when est
// would grow past MaxSets sets.
//
// Worker lane w owns shard w and generates exactly the global indices
// idx with coverage.ShardOf(idx, shards) == w, so placement is the
// documented pure function of (index, shard count) and no set is ever
// copied: the arena IS the shard's store segment, and
// sentinel-terminated sets are truncated in place (Arena.DropLast). est
// must have one shard per batcher worker (NewEstimator builds it so);
// Fill returns an error otherwise.
//
//subsim:parallel
func (b *Batcher) Fill(est *coverage.Sharded, count int, sentinel []bool) (hits int64, err error) {
	if count <= 0 {
		return 0, nil
	}
	shards := est.NumShards()
	if shards != len(b.gens) {
		return 0, fmt.Errorf("im: estimator has %d shards, batcher has %d workers; build it with one shard per worker", shards, len(b.gens))
	}
	if have := est.NumSets(); count > MaxSets-have {
		return 0, fmt.Errorf("im: %d more RR sets would grow a collection of %d past %d", count, have, MaxSets)
	}
	hGen := b.secGenerate.Enter()
	first := b.next
	b.next += int64(count)
	if count < 4*shards || shards == 1 {
		// Small batch: worker 0's generator serves every shard in turn,
		// as one lane; set content depends only on (seed, index), so the
		// lane choice is invisible.
		l := b.startLane(0)
		for s := 0; s < shards; s++ {
			hits += b.fillShard(est.ShardArena(s), 0, s, shards, first, count, sentinel)
		}
		b.endLane(0, l)
		hGen.Exit()
		return hits, nil
	}
	var wg sync.WaitGroup
	wg.Add(shards - 1)
	for w := 1; w < shards; w++ {
		go func(w int) {
			defer wg.Done()
			l := b.startLane(w)
			b.hitCnt[w] = b.fillShard(est.ShardArena(w), w, w, shards, first, count, sentinel)
			b.endLane(w, l)
		}(w)
	}
	l := b.startLane(0)
	b.hitCnt[0] = b.fillShard(est.ShardArena(0), 0, 0, shards, first, count, sentinel)
	b.endLane(0, l)
	wg.Wait()
	for w := 0; w < shards; w++ {
		hits += b.hitCnt[w]
	}
	hGen.Exit()
	return hits, nil
}

// FillPair fills two collections by count sets each, idx1 first — the
// way OPIM-C and HIST's IM-Sentinel phase grow their selection and
// verification collections — and returns the sentinel hits of each.
func (b *Batcher) FillPair(idx1, idx2 *coverage.Sharded, count int, sentinel []bool) (hits1, hits2 int64, err error) {
	if hits1, err = b.Fill(idx1, count, sentinel); err != nil {
		return 0, 0, err
	}
	hits2, err = b.Fill(idx2, count, sentinel)
	return hits1, hits2, err
}

// fillShard generates every global index idx in [first, first+count)
// with ShardOf(idx, shards) == shard into a, through worker lane w's
// generator and RNG stream, appending onto whatever the arena already
// holds (it is a persistent store segment, never Reset). Sets that
// terminated on a sentinel are dropped in place and counted.
func (b *Batcher) fillShard(a *rrset.Arena, w, shard, shards int, first int64, count int, sentinel []bool) (hits int64) {
	r := (int64(shard) - first%int64(shards) + int64(shards)) % int64(shards)
	if r >= int64(count) {
		return 0
	}
	cnt := (int64(count) - r + int64(shards) - 1) / int64(shards)
	b.reserve(a, w, int(cnt))
	last := first + int64(count)
	for idx := first + r; idx < last; idx += int64(shards) {
		b.srcs[w].Seed(setSeed(b.seed, idx))
		rrset.GenerateRandomInto(b.gens[w], a, b.srcs[w], sentinel)
		if sentinel != nil && arenaLastHit(a, sentinel) {
			a.DropLast()
			hits++
		}
	}
	return hits
}

// arenaLastHit reports whether the arena's most recently committed set
// terminated on a sentinel; the traversal always leaves the sentinel as
// the set's last element.
func arenaLastHit(a *rrset.Arena, sentinel []bool) bool {
	set := a.Set(a.Len() - 1)
	return len(set) > 0 && sentinel[set[len(set)-1]]
}

// NewEstimator constructs the exact coverage engine for a run, wired to
// the metric set (which may be nil), with one shard per worker so
// Batcher.Fill generates straight into the shard arenas (the shard count
// never changes a result: every query is a sum over shards). Worker
// bounds are inherited from opt.Workers.
func NewEstimator(n int, outDeg []int32, opt Options, m *obs.MetricSet) *coverage.Sharded {
	s := coverage.NewShardedObs(n, outDeg, opt.Workers, m)
	s.SetWorkers(opt.Workers)
	return s
}

// StartRun opens the recorder of one run of alg over gen's graph (see
// obs.Run), with the run.start parameters read off opt.
func StartRun(alg string, gen rrset.Generator, opt Options) obs.Run {
	g := gen.Graph()
	return obs.StartRun(opt.Tracer, opt.Logger, alg, obs.RunParams{
		N: g.N(), M: g.M(), K: opt.K, Eps: opt.Eps, Seed: opt.Seed, Workers: opt.Workers,
	})
}

// OutDegrees extracts the out-degree array used by the Revised-Greedy
// tie-break.
func OutDegrees(gen rrset.Generator) []int32 {
	g := gen.Graph()
	deg := make([]int32, g.N())
	for v := range deg {
		deg[v] = int32(g.OutDegree(int32(v)))
	}
	return deg
}

// doublingRounds returns ceil(log2(max/initial)), the iteration budget of
// the doubling schemes.
func doublingRounds(initial, max int64) int {
	if max <= initial {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(max) / float64(initial))))
}
