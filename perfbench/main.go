// Command perfbench is the repository's fixed performance benchmark. One
// client makes closed-loop certified influence-maximization runs through
// the public facade (subsim.Maximize, with tracer, logger and flight
// recorder off), starting run i with seed --seed + i only when run i-1
// has returned, and checks every result. With --trace 1 it repeats the
// same seeds through subsim.MaximizeWith with a tracer and a timing
// wrapper around the RR generator, and reports per-layer metrics
// instead. README.md describes the workloads and the metrics.
//
// Usage (from this directory):
//
//	go run . --workload subsim-wc --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"subsim"
	"subsim/internal/graph"
)

const (
	// setupReps is how many times a process builds its graph; setup_s
	// is the median.
	setupReps = 7
	// minRuns guarantees run_s_tail a percentile with tailBeyond
	// samples above it.
	minRuns = tailBeyond + 1
	// mcConfidence is the level of the forward Monte-Carlo interval the
	// certified lower bound is checked against.
	mcConfidence = 0.99
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; run i uses seed+i")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	tiny := fs.Bool("tiny", false, "run the seconds-scale variant of the workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	sh := w.full
	if *tiny {
		sh = w.tiny
	}

	fmt.Fprintf(stdout, "host num_cpu=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if w.workers > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(stderr, "perfbench: skipping %s: it runs %d workers and GOMAXPROCS is %d\n", w.name, w.workers, runtime.GOMAXPROCS(0))
		return 3
	}
	g, st, err := setup(w, sh, setupReps)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s alg=%v n=%d m=%d k=%d eps=%g workers=%d seed=%d\n",
		w.name, w.alg, g.N(), g.M(), sh.k, w.eps, w.workers, *seed)

	r := &runner{
		w: w, s: sh, g: g, setup: st, seed: *seed, log: stdout,
		dur:  time.Duration(*seconds * float64(time.Second)),
		seen: make([]bool, g.N()),
	}
	var rep *report
	if *trace == 0 {
		rep = r.endToEnd()
	} else {
		rep = r.perLayer()
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runner holds one process's set-up and drives its runs.
type runner struct {
	w     workload
	s     shape
	g     *graph.Graph
	setup setupTimes
	seed  uint64
	dur   time.Duration
	log   io.Writer
	seen  []bool // scratch for check, all false between calls
}

// runOut is one certified run and its wall time.
type runOut struct {
	res  *subsim.Result
	err  error
	wall time.Duration
}

func (r *runner) options(seed uint64) subsim.Options {
	return subsim.Options{K: r.s.k, Eps: r.w.eps, Seed: seed, Workers: r.w.workers}
}

// plain is one untraced run through subsim.Maximize.
func (r *runner) plain(seed uint64) runOut {
	opt := r.options(seed)
	t0 := time.Now()
	res, err := subsim.Maximize(r.g, r.w.alg, opt)
	return runOut{res: res, err: err, wall: time.Since(t0)}
}

// traced is the same run through subsim.MaximizeWith, with a tracer and
// the timed SUBSIM generator (the generator every workload's algorithm
// uses), accounted into lt.
func (r *runner) traced(seed uint64, lt *layerTotals) runOut {
	epoch := time.Now()
	rec := &genRecorder{epoch: epoch}
	tr := subsim.NewTracer()
	tr.SetClock(func() int64 { return int64(time.Since(epoch)) })
	opt := r.options(seed)
	opt.Tracer = tr
	lo := int64(time.Since(epoch))
	gen := rec.wrap(subsim.NewRRGenerator(r.g, subsim.GenSubsim))
	res, err := subsim.MaximizeWith(gen, r.w.alg, opt)
	hi := int64(time.Since(epoch))
	if err == nil {
		lt.add(lo, hi, rec, res)
	}
	return runOut{res: res, err: err, wall: time.Duration(hi - lo)}
}

// warmUp makes one untimed run so lazy initialisation and heap growth
// happen before timing starts.
func (r *runner) warmUp() { r.plain(r.seed) }

// memDelta is the change of the runtime's memory statistics over some
// runs.
type memDelta struct {
	alloc, gcs, pauseNS uint64
}

func (d *memDelta) add(m0, m1 *runtime.MemStats) {
	d.alloc += m1.TotalAlloc - m0.TotalAlloc
	d.gcs += uint64(m1.NumGC - m0.NumGC)
	d.pauseNS += m1.PauseTotalNs - m0.PauseTotalNs
}

// loop makes closed-loop untraced runs with seeds seed, seed+1, ...
// until r.dur has passed and at least minRuns are done.
func (r *runner) loop() ([]runOut, time.Duration, memDelta) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var outs []runOut
	start := time.Now()
	for i := 0; len(outs) < minRuns || time.Since(start) < r.dur; i++ {
		outs = append(outs, r.plain(r.seed+uint64(i)))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	var mem memDelta
	mem.add(&m0, &m1)
	return outs, elapsed, mem
}

// pairs alternates an untraced and a traced run of each seed seed,
// seed+1, ... until r.dur has passed, so both sides see the same
// machine state. Memory statistics cover the untraced runs only.
func (r *runner) pairs(lt *layerTotals) (plain, traced []runOut, mem memDelta) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < r.dur; i++ {
		seed := r.seed + uint64(i)
		runtime.ReadMemStats(&m0)
		plain = append(plain, r.plain(seed))
		runtime.ReadMemStats(&m1)
		mem.add(&m0, &m1)
		traced = append(traced, r.traced(seed, lt))
	}
	return plain, traced, mem
}

// check verifies one run's output: k distinct in-range seeds,
// 0 < LowerBound <= UpperBound, and a certified ratio above 1-1/e-ε.
func (r *runner) check(o runOut) error {
	if o.err != nil {
		return o.err
	}
	res := o.res
	if len(res.Seeds) != r.s.k {
		return fmt.Errorf("%d seeds, want %d", len(res.Seeds), r.s.k)
	}
	var err error
	marked := 0
	for _, v := range res.Seeds {
		if v < 0 || int(v) >= len(r.seen) {
			err = fmt.Errorf("seed %d outside [0,%d)", v, len(r.seen))
			break
		}
		if r.seen[v] {
			err = fmt.Errorf("seed %d selected twice", v)
			break
		}
		r.seen[v] = true
		marked++
	}
	for _, v := range res.Seeds[:marked] {
		r.seen[v] = false
	}
	if err != nil {
		return err
	}
	if !(res.LowerBound > 0 && res.LowerBound <= res.UpperBound) {
		return fmt.Errorf("bounds [%g, %g] not 0 < lower <= upper", res.LowerBound, res.UpperBound)
	}
	if target := 1 - 1/math.E - r.w.eps; !(res.Approx > target) {
		return fmt.Errorf("certified ratio %g not above %g", res.Approx, target)
	}
	return nil
}

// sameResult reports whether a traced run reproduced the untraced one
// byte for byte: seeds, bounds, estimate, ratio, rounds and RR stats.
func sameResult(a, b *subsim.Result) error {
	switch {
	case !slices.Equal(a.Seeds, b.Seeds):
		return fmt.Errorf("seeds differ")
	case math.Float64bits(a.LowerBound) != math.Float64bits(b.LowerBound),
		math.Float64bits(a.UpperBound) != math.Float64bits(b.UpperBound),
		math.Float64bits(a.Influence) != math.Float64bits(b.Influence),
		math.Float64bits(a.Approx) != math.Float64bits(b.Approx):
		return fmt.Errorf("bounds differ: [%v, %v] vs [%v, %v]", a.LowerBound, a.UpperBound, b.LowerBound, b.UpperBound)
	case a.RRStats != b.RRStats || a.Rounds != b.Rounds:
		return fmt.Errorf("RR stats differ: %+v in %d rounds vs %+v in %d rounds", a.RRStats, a.Rounds, b.RRStats, b.Rounds)
	}
	return nil
}

// mcFailure compares the first run's certified lower bound with a
// forward Monte-Carlo estimate of its seeds' influence, and returns 1
// if the bound exceeds the upper confidence limit. A first run that
// already failed its own check is not checked again.
func (r *runner) mcFailure(first runOut) int {
	if r.check(first) != nil {
		return 0
	}
	res := first.res
	iv := subsim.EstimateInfluenceInterval(r.g, res.Seeds, r.s.mcSamples, subsim.IC, mcConfidence, r.seed)
	fmt.Fprintf(r.log, "mc_check lower_bound=%.1f mc_mean=%.1f mc_interval=[%.1f, %.1f] samples=%d\n",
		res.LowerBound, iv.Mean, iv.Lo, iv.Hi, iv.Samples)
	if res.LowerBound > iv.Hi {
		fmt.Fprintf(r.log, "FAIL run seed=%d: certified lower bound %.1f above the Monte-Carlo upper limit %.1f\n",
			r.seed, res.LowerBound, iv.Hi)
		return 1
	}
	return 0
}

// failures counts the runs in outs whose check fails, logging each.
func (r *runner) failures(outs []runOut, label string) int {
	failed := 0
	for i, o := range outs {
		if err := r.check(o); err != nil {
			fmt.Fprintf(r.log, "FAIL %s run seed=%d: %v\n", label, r.seed+uint64(i), err)
			failed++
		}
	}
	return failed
}

func walls(outs []runOut) []time.Duration {
	d := make([]time.Duration, len(outs))
	for i, o := range outs {
		d[i] = o.wall
	}
	return d
}

// endToEnd measures the untraced closed loop and reports the
// end-to-end metrics.
func (r *runner) endToEnd() *report {
	r.warmUp()
	outs, elapsed, mem := r.loop()
	n := float64(len(outs))
	failed := r.failures(outs, "untraced") + r.mcFailure(outs[0])

	var approx, lbFrac, ok float64
	for _, o := range outs {
		if o.err == nil {
			approx += o.res.Approx
			lbFrac += o.res.LowerBound / float64(r.g.N())
			ok++
		}
	}
	rep := newReport(len(outs), failed)
	w := walls(outs)
	rep.add("run_s_p50", median(w).Seconds(), "s", fmt.Sprintf("median of %d runs", len(outs)))
	t, pct := tail(w)
	rep.add("run_s_tail", t.Seconds(), "s", fmt.Sprintf("p%.1f of %d runs, %d beyond", pct, len(outs), tailBeyond))
	rep.add("runs_per_s", n/elapsed.Seconds(), "1/s", fmt.Sprintf("closed loop, 1 client, %.1f s", elapsed.Seconds()))
	rep.add("setup_s", r.setup.total.Seconds(), "s", fmt.Sprintf("median of %d graph builds", setupReps))
	rep.add("alloc_mb_per_run", float64(mem.alloc)/1e6/n, "MB", "TotalAlloc delta per run")
	rep.add("certified_ratio", ratio(approx, ok), "ratio", "mean Result.Approx")
	rep.add("influence_lb_frac", ratio(lbFrac, ok), "frac", "mean LowerBound/n")
	rep.add("ok_frac", 1-float64(failed)/n, "frac", fmt.Sprintf("failed_frac=%g", float64(failed)/n))
	return rep
}

// perLayer runs untraced and traced runs of the same seeds in turn and
// reports the per-layer metrics.
func (r *runner) perLayer() *report {
	r.warmUp()
	var lt layerTotals
	outs, traced, mem := r.pairs(&lt)
	failed := r.failures(outs, "untraced") + r.mcFailure(outs[0])
	for i, o := range traced {
		err := r.check(o)
		if err == nil && outs[i].err == nil {
			err = sameResult(outs[i].res, o.res)
		}
		if err != nil {
			fmt.Fprintf(r.log, "FAIL traced run seed=%d: %v\n", r.seed+uint64(i), err)
			failed++
		}
	}
	vanilla := probeGenerator(r.g, subsim.GenVanilla, r.s.probeSets, r.seed)
	sub := probeGenerator(r.g, subsim.GenSubsim, r.s.probeSets, r.seed)

	rep := newReport(2*len(outs), failed)
	runs := float64(lt.runs)
	perRun := func(ns int64) float64 { return ratio(float64(ns)/1e9, runs) }
	share := func(ns int64) float64 { return ratio(float64(ns), float64(lt.wallNS)) }
	all := lt.full
	all.add(lt.sent)
	note := fmt.Sprintf("mean of %d traced runs", lt.runs)

	rep.add("graph.build_s", r.setup.build.Seconds(), "s", "median PA generation + CSR build")
	rep.add("graph.weights_s", r.setup.weights.Seconds(), "s", "median weight assignment")
	rep.add("graph.edges", float64(r.g.M()), "count", "")
	rep.add("graph.csr_mb", float64(csrBytes(r.g))/1e6, "MB", "CSR arrays, both directions")

	rep.add("rrset.ns_per_set", ratio(float64(lt.busyNS), float64(all.sets)), "ns", "GenerateInto busy time per set")
	rep.add("rrset.ns_per_edge", ratio(float64(lt.busyNS), float64(all.edges)), "ns", "busy time per examined edge")
	rep.add("rrset.self_s", perRun(lt.genNS), "s", note+", union over workers")
	rep.add("rrset.sets_per_run", ratio(float64(all.sets), runs), "count", note)
	rep.add("rrset.avg_size", ratio(float64(all.nodes), float64(all.sets)), "nodes", "all sets")
	rep.add("rrset.edges_per_set", ratio(float64(all.edges), float64(all.sets)), "count", "edges examined per set")
	fullAvg := ratio(float64(lt.full.nodes), float64(lt.full.sets))
	sentAvg := ratio(float64(lt.sent.nodes), float64(lt.sent.sets))
	rep.add("rrset.avg_size_full", fullAvg, "nodes", fmt.Sprintf("%d sets without sentinels", lt.full.sets))
	rep.add("rrset.avg_size_sentinel", sentAvg, "nodes", fmt.Sprintf("%d sentinel-terminated sets", lt.sent.sets))
	rep.add("rrset.sentinel_hit_frac", ratio(float64(lt.hits), float64(lt.sent.sets)), "frac", "of sentinel-terminated sets")
	rep.add("rrset.full_over_sentinel", ratio(fullAvg, sentAvg), "ratio", "Fig. 3b: avg_size_full / avg_size_sentinel")
	rep.add("rrset.vanilla_ratio", ratio(vanilla.nsPerSet, sub.nsPerSet), "ratio",
		fmt.Sprintf("Fig. 2: vanilla %.0f ns/set over SUBSIM %.0f ns/set, %d sets", vanilla.nsPerSet, sub.nsPerSet, r.s.probeSets))
	rep.add("rrset.vanilla_edge_ratio", ratio(vanilla.edgesPerSet, sub.edgesPerSet), "ratio",
		fmt.Sprintf("vanilla %.1f edges/set over SUBSIM %.1f", vanilla.edgesPerSet, sub.edgesPerSet))

	rep.add("coverage.ingest_s", perRun(lt.ingestNS), "s", "sampling spans minus generation")
	rep.add("coverage.select_s", perRun(lt.selectNS), "s", "selection spans")
	rep.add("coverage.check_s", perRun(lt.checkNS), "s", "bound-check spans")

	rep.add("core.sentinel_phase_frac", share(lt.sentinelNS), "frac", fmt.Sprintf("%.4f s per run", perRun(lt.sentinelNS)))
	rep.add("core.residual_phase_frac", share(lt.residualNS), "frac", fmt.Sprintf("%.4f s per run", perRun(lt.residualNS)))
	rep.add("core.verify_frac", share(lt.verifyNS), "frac", fmt.Sprintf("%.4f s per run, %.4f s without generation", perRun(lt.verifyNS), perRun(lt.verifySelfNS)))
	rep.add("core.sentinels", ratio(float64(lt.sentinelNodes), runs), "count", "mean |S_b|")

	rep.add("im.rounds", ratio(float64(lt.rounds), runs), "count", note)
	rep.add("im.unattributed_s", perRun(lt.unattributed), "s", "run wall minus all layer spans")
	rep.add("im.unattributed_frac", share(lt.unattributed), "frac", fmt.Sprintf("of %.4f s traced run wall", perRun(lt.wallNS)))

	n := float64(len(outs))
	rep.add("runtime.gc_cycles_per_run", float64(mem.gcs)/n, "count", fmt.Sprintf("%d untraced runs", len(outs)))
	rep.add("runtime.gc_pause_s", float64(mem.pauseNS)/1e9/n, "s", "GC pause per untraced run")
	rep.add("runtime.max_rss_mb", maxRSSMB(), "MB", "process peak")

	plainP50, tracedP50 := median(walls(outs)), median(walls(traced))
	rep.add("obs.overhead_frac", ratio(float64(tracedP50), float64(plainP50))-1, "frac",
		fmt.Sprintf("traced p50 %.4f s vs untraced %.4f s", tracedP50.Seconds(), plainP50.Seconds()))
	return rep
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line plus the human-readable lines before it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
	notes map[string]string
}

func newReport(attempted, failed int) *report {
	return &report{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{}, notes: map[string]string{},
	}
}

func (r *report) add(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
	r.order = append(r.order, name)
}

// print writes one line per metric in the order added, then the JSON
// result as the last line.
func (r *report) print(w io.Writer) error {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %-6s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	return json.NewEncoder(w).Encode(r)
}
