package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	rtm "runtime/metrics"
	"strconv"
)

// promContentType is the Prometheus text exposition content type the
// scrape protocol expects.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics renders the live metric set plus derived and runtime
// gauges. The whole exposition is built in one buffer and written with a
// single Write, so a scrape never observes a torn document; individual
// values are atomic loads against the instruments the workers update.
func (p *Plane) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := p.tracer.Metrics().WritePrometheus(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	p.writeDerived(&buf)
	if p.opts.RuntimeMetrics {
		p.writeProcess(&buf)
		writeRuntime(&buf)
	}
	w.Header().Set("Content-Type", promContentType)
	_, _ = w.Write(buf.Bytes())
}

// writeDerived emits gauges computed from the raw instruments: the
// per-worker sampling utilization (busy ns over plane uptime) and the
// share of wall-clock spent in CSR index builds.
func (p *Plane) writeDerived(buf *bytes.Buffer) {
	m := p.tracer.Metrics()
	up := p.uptime().Nanoseconds()
	if busy := m.WorkerBusySnapshot(); len(busy) > 0 && up > 0 {
		name := "subsim_worker_utilization"
		fmt.Fprintf(buf, "# HELP %s Fraction of process uptime worker spent generating RR sets.\n# TYPE %s gauge\n", name, name)
		for w, ns := range busy {
			fmt.Fprintf(buf, "%s{worker=\"%d\"} %s\n", name, w, promFloat(float64(ns)/float64(up)))
		}
	}
	if m != nil && up > 0 {
		index := m.IndexBuild.Sum()
		name := "subsim_coverage_busy_ratio"
		fmt.Fprintf(buf, "# HELP %s Fraction of process uptime spent in CSR index builds.\n# TYPE %s gauge\n", name, name)
		fmt.Fprintf(buf, "%s %s\n", name, promFloat(float64(index)/float64(up)))
	}
}

// writeProcess emits the plane's own process gauges.
func (p *Plane) writeProcess(buf *bytes.Buffer) {
	writeGauge(buf, "subsim_process_uptime_seconds", "Seconds since the telemetry plane was constructed.", p.uptime().Seconds())
	writeGauge(buf, "subsim_graph_loaded", "1 once the graph is loaded (readiness signal).", b2f(p.graphLoaded.Load()))
	writeCounter(buf, "subsim_runs_started_total", "Algorithm runs started.", p.runsStarted.Load())
	writeCounter(buf, "subsim_runs_finished_total", "Algorithm runs finished.", p.runsFinished.Load())
}

// runtimeSamples are the runtime/metrics series exported on /metrics:
// scalar gauges/counters plus the GC-pause and scheduler-latency
// distributions rendered as Prometheus histograms.
var runtimeSamples = []struct {
	key  string // runtime/metrics name
	name string // exposition name
	help string
	kind string // "gauge", "counter" or "hist"
}{
	{"/sched/goroutines:goroutines", "subsim_go_goroutines", "Live goroutines.", "gauge"},
	{"/memory/classes/heap/objects:bytes", "subsim_go_heap_objects_bytes", "Bytes of live heap objects.", "gauge"},
	{"/memory/classes/total:bytes", "subsim_go_memory_total_bytes", "All memory mapped by the Go runtime.", "gauge"},
	{"/gc/cycles/total:gc-cycles", "subsim_go_gc_cycles_total", "Completed GC cycles.", "counter"},
	{"/gc/pauses:seconds", "subsim_go_gc_pause_seconds", "Stop-the-world GC pause distribution.", "hist"},
	{"/sched/latencies:seconds", "subsim_go_sched_latency_seconds", "Goroutine scheduling latency distribution.", "hist"},
}

// writeRuntime samples runtime/metrics and renders the configured
// series. Unknown keys (older runtimes) are skipped silently.
func writeRuntime(buf *bytes.Buffer) {
	samples := make([]rtm.Sample, len(runtimeSamples))
	for i := range runtimeSamples {
		samples[i].Name = runtimeSamples[i].key
	}
	rtm.Read(samples)
	for i, s := range samples {
		cfg := runtimeSamples[i]
		switch s.Value.Kind() {
		case rtm.KindUint64:
			v := s.Value.Uint64()
			if cfg.kind == "counter" {
				writeCounter(buf, cfg.name, cfg.help, int64(v))
			} else {
				writeGauge(buf, cfg.name, cfg.help, float64(v))
			}
		case rtm.KindFloat64:
			writeGauge(buf, cfg.name, cfg.help, s.Value.Float64())
		case rtm.KindFloat64Histogram:
			writeFloatHistogram(buf, cfg.name, cfg.help, s.Value.Float64Histogram())
		}
	}
}

// writeFloatHistogram renders a runtime/metrics Float64Histogram in the
// exposition format. runtime histograms carry no exact sum, so _sum is
// the midpoint estimate (flagged in HELP); buckets are compacted to the
// non-empty ones with exact cumulative counts.
func writeFloatHistogram(buf *bytes.Buffer, name, help string, h *rtm.Float64Histogram) {
	if h == nil || len(h.Counts) == 0 {
		return
	}
	fmt.Fprintf(buf, "# HELP %s %s (sum is a midpoint estimate).\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	var sum float64
	total := uint64(0)
	for _, c := range h.Counts {
		total += c
	}
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if c > 0 && !math.IsInf(hi, 1) && !math.IsInf(lo, -1) {
			sum += float64(c) * (lo + hi) / 2
		}
		if c == 0 && i < len(h.Counts)-1 {
			cum += c
			continue
		}
		cum += c
		le := "+Inf"
		if !math.IsInf(hi, 1) {
			le = promFloat(hi)
		}
		fmt.Fprintf(buf, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	if !math.IsInf(h.Buckets[len(h.Buckets)-1], 1) {
		fmt.Fprintf(buf, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	}
	fmt.Fprintf(buf, "%s_sum %s\n%s_count %d\n", name, promFloat(sum), name, total)
}

func writeGauge(buf *bytes.Buffer, name, help string, v float64) {
	fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promFloat(v))
}

func writeCounter(buf *bytes.Buffer, name, help string, v int64) {
	fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promFloat(v float64) string {
	if v >= -1e15 && v <= 1e15 && v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
