package timeline

import "sort"

// SummarySchema / SummarySchemaVersion version the summary JSON folded
// into the run report, mirroring the run-report discipline: consumers
// check the pair before trusting field semantics.
const (
	SummarySchema        = "subsim.timeline-summary"
	SummarySchemaVersion = 1
)

// Summary is the compact utilization/imbalance digest of a timeline
// snapshot: how busy each worker was, how skewed the load is per phase,
// and how much of the wall span no worker covered (the serial gap).
type Summary struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`
	Workers       int    `json:"workers"`
	Records       int    `json:"records"`
	Dropped       int64  `json:"dropped"`
	// SpanNS is first record start → last record end.
	SpanNS int64 `json:"span_ns"`
	// BusyNS is the sum of all record durations (can exceed SpanNS when
	// workers overlap).
	BusyNS int64 `json:"busy_ns"`
	// CoveredNS is the length of the union of all record intervals —
	// wall time during which at least one worker was busy.
	CoveredNS int64 `json:"covered_ns"`
	// SerialGapNS = SpanNS − CoveredNS: wall time inside the span where
	// no worker recorded activity (coordination, serial sections).
	SerialGapNS int64 `json:"serial_gap_ns"`
	// WorkerBusyNS[w] is worker w's total recorded busy time.
	WorkerBusyNS []int64 `json:"worker_busy_ns"`
	// Phases digests each phase present in the snapshot, ordered by
	// Phase value.
	Phases []PhaseSummary `json:"phases"`
}

// PhaseSummary is the per-phase slice of the digest.
type PhaseSummary struct {
	Phase   string `json:"phase"`
	Records int    `json:"records"`
	// BusyNS is the summed duration across workers.
	BusyNS int64 `json:"busy_ns"`
	// WallNS is first start → last end for the phase.
	WallNS int64 `json:"wall_ns"`
	// Workers is how many distinct workers recorded the phase.
	Workers int `json:"workers"`
	// MaxWorkerNS / MeanWorkerNS describe the per-worker busy-time
	// distribution; Skew = MaxWorkerNS / MeanWorkerNS (1.0 = perfectly
	// balanced; the classic load-imbalance factor).
	MaxWorkerNS  int64   `json:"max_worker_ns"`
	MeanWorkerNS int64   `json:"mean_worker_ns"`
	Skew         float64 `json:"skew"`
}

// Summarize folds a snapshot into its utilization digest. Pure function
// of the snapshot — safe on a zero Snapshot (returns an empty, still
// schema-stamped summary).
func Summarize(snap Snapshot) Summary {
	sum := Summary{
		Schema:        SummarySchema,
		SchemaVersion: SummarySchemaVersion,
		Workers:       snap.Workers,
		Records:       len(snap.Records),
		Dropped:       snap.Dropped,
	}
	if snap.Workers > 0 {
		sum.WorkerBusyNS = make([]int64, snap.Workers)
	}
	if len(snap.Records) == 0 {
		sum.Phases = []PhaseSummary{}
		return sum
	}

	minStart, maxEnd := snap.Records[0].StartNS, snap.Records[0].EndNS
	type phaseAcc struct {
		records  int
		busy     int64
		minStart int64
		maxEnd   int64
		byWorker map[int]int64
	}
	var phases [numPhases]*phaseAcc
	for _, rec := range snap.Records {
		d := rec.EndNS - rec.StartNS
		if d < 0 {
			d = 0
		}
		sum.BusyNS += d
		if rec.Worker >= 0 && rec.Worker < len(sum.WorkerBusyNS) {
			sum.WorkerBusyNS[rec.Worker] += d
		}
		if rec.StartNS < minStart {
			minStart = rec.StartNS
		}
		if rec.EndNS > maxEnd {
			maxEnd = rec.EndNS
		}
		p := rec.Phase
		if p >= numPhases {
			p = PhaseOther
		}
		acc := phases[p]
		if acc == nil {
			acc = &phaseAcc{minStart: rec.StartNS, maxEnd: rec.EndNS, byWorker: make(map[int]int64)}
			phases[p] = acc
		}
		acc.records++
		acc.busy += d
		if rec.StartNS < acc.minStart {
			acc.minStart = rec.StartNS
		}
		if rec.EndNS > acc.maxEnd {
			acc.maxEnd = rec.EndNS
		}
		acc.byWorker[rec.Worker] += d
	}
	sum.SpanNS = maxEnd - minStart
	sum.CoveredNS = unionLength(snap.Records)
	sum.SerialGapNS = sum.SpanNS - sum.CoveredNS
	if sum.SerialGapNS < 0 {
		sum.SerialGapNS = 0
	}

	sum.Phases = make([]PhaseSummary, 0, int(numPhases))
	for p := Phase(0); p < numPhases; p++ {
		acc := phases[p]
		if acc == nil {
			continue
		}
		ps := PhaseSummary{
			Phase:   p.String(),
			Records: acc.records,
			BusyNS:  acc.busy,
			WallNS:  acc.maxEnd - acc.minStart,
			Workers: len(acc.byWorker),
		}
		var total int64
		for _, busy := range acc.byWorker {
			total += busy
			if busy > ps.MaxWorkerNS {
				ps.MaxWorkerNS = busy
			}
		}
		if n := int64(len(acc.byWorker)); n > 0 {
			ps.MeanWorkerNS = total / n
		}
		if ps.MeanWorkerNS > 0 {
			ps.Skew = float64(ps.MaxWorkerNS) / float64(ps.MeanWorkerNS)
		}
		sum.Phases = append(sum.Phases, ps)
	}
	return sum
}

// unionLength computes the total length of the union of the record
// intervals. Records arrive start-sorted from Snapshot, but re-sorting
// keeps the function correct standalone.
func unionLength(records []Record) int64 {
	if len(records) == 0 {
		return 0
	}
	sorted := sort.SliceIsSorted(records, func(i, j int) bool {
		return records[i].StartNS < records[j].StartNS
	})
	idx := records
	if !sorted {
		idx = append([]Record(nil), records...)
		sort.Slice(idx, func(i, j int) bool { return idx[i].StartNS < idx[j].StartNS })
	}
	var total int64
	curStart, curEnd := idx[0].StartNS, idx[0].EndNS
	for _, rec := range idx[1:] {
		if rec.StartNS > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = rec.StartNS, rec.EndNS
			continue
		}
		if rec.EndNS > curEnd {
			curEnd = rec.EndNS
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}
