package obs

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus dumps the metric set in the Prometheus text exposition
// format (counters and cumulative histograms, `subsim_` prefixed). It is
// the one Prometheus writer: what imrun prints under -metrics and what
// the serve plane's /metrics endpoint serves.
func (m *MetricSet) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	counters := []struct {
		name, help string
		v          int64
	}{
		{"subsim_rr_sets_total", "RR sets generated.", m.Sets.Load()},
		{"subsim_rr_nodes_total", "Total nodes across all RR sets.", m.Nodes.Load()},
		{"subsim_rr_edges_examined_total", "Edge examinations (Lemma 4 cost).", m.Edges.Load()},
		{"subsim_sentinel_hits_total", "RR sets truncated by a sentinel.", m.SentinelHits.Load()},
		{"subsim_index_entries_total", "Postings placed by CSR inverted-index builds.", m.IndexEntries.Load()},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.v); err != nil {
			return err
		}
	}
	gauges := []struct {
		name, help string
		v          float64
	}{
		{"subsim_bound_lower", "Live certified influence lower bound (Eq. 1).", m.Lower.Load()},
		{"subsim_bound_upper", "Live certified optimum upper bound (Eq. 2).", m.Upper.Load()},
		{"subsim_bound_approx", "Live certified approximation ratio (lower/upper).", m.Approx.Load()},
		{"subsim_round", "Doubling round of the latest bound-check.", float64(m.Round.Load())},
		{"subsim_theta_worst", "Worst-case RR sample budget (IMM/OPIM-C analysis).", float64(m.ThetaWorst.Load())},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			g.name, g.help, g.name, g.name, formatPromFloat(g.v)); err != nil {
			return err
		}
	}
	hists := []struct {
		name, help string
		h          *Histogram
	}{
		{"subsim_index_build_ns", "CSR inverted-index build duration (ns).", &m.IndexBuild},
		{"subsim_index_build_serial_ns", "CSR index builds taking the serial delta path (ns).", &m.IndexBuildSerial},
		{"subsim_index_build_parallel_ns", "CSR index builds taking the shard-parallel path (ns).", &m.IndexBuildParallel},
	}
	for _, h := range hists {
		if err := writePromHistogram(w, h.name, h.help, h.h); err != nil {
			return err
		}
	}
	if workers := m.WorkerSnapshot(); len(workers) > 0 {
		name := "subsim_worker_sets_total"
		if _, err := fmt.Fprintf(w, "# HELP %s RR sets generated per worker.\n# TYPE %s counter\n", name, name); err != nil {
			return err
		}
		for wkr, v := range workers {
			if _, err := fmt.Fprintf(w, "%s{worker=\"%d\"} %d\n", name, wkr, v); err != nil {
				return err
			}
		}
	}
	if busy := m.WorkerBusySnapshot(); len(busy) > 0 {
		name := "subsim_worker_busy_ns_total"
		if _, err := fmt.Fprintf(w, "# HELP %s Nanoseconds each worker spent generating RR sets.\n# TYPE %s counter\n", name, name); err != nil {
			return err
		}
		for wkr, v := range busy {
			if _, err := fmt.Fprintf(w, "%s{worker=\"%d\"} %d\n", name, wkr, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatPromFloat renders a float in the exposition format: integral
// values print without an exponent so the common zero/round cases stay
// human-readable and stable for golden tests.
func formatPromFloat(v float64) string {
	if v >= -1e15 && v <= 1e15 && v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writePromHistogram(w io.Writer, name, help string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		n := h.Bucket(i)
		if n == 0 && i < NumBuckets-1 {
			continue // keep the dump sparse; cumulative counts stay exact
		}
		cum += n
		le := "+Inf"
		if ub := BucketUpper(i); ub >= 0 {
			le = fmt.Sprintf("%d", ub)
		}
		if i == NumBuckets-1 {
			cum = h.Count() // the +Inf bucket always equals the count
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Count())
	return err
}
