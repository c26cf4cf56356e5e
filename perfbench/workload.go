package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"subsim"
	"subsim/internal/graph"
	"subsim/internal/rng"
)

// fingerprint pins a generated graph: node count, edge count and an
// FNV-1a hash of its in-edge lists in CSR order.
type fingerprint struct {
	n    int
	m    int64
	hash uint64
}

func (f fingerprint) String() string {
	return fmt.Sprintf("{n: %d, m: %d, hash: %#x}", f.n, f.m, f.hash)
}

// shape is one scale of a workload: graph size, seed-set size, the
// forward Monte-Carlo sample count of its influence check, the RR-set
// count of its vanilla-versus-SUBSIM generation probe, and the pinned
// graph fingerprint.
type shape struct {
	n, k        int
	mcSamples   int
	probeSets   int
	fingerprint fingerprint
}

// workload is one fixed benchmark configuration. Every workload runs on
// a directed preferential-attachment graph the benchmark generates
// itself from graphSeed; the --seed flag only picks the run seeds.
type workload struct {
	name      string
	alg       subsim.Algorithm
	deg       int
	graphSeed uint64
	model     subsim.WeightModel // ModelWC or ModelWCVariant
	wcvTheta  float64            // WC-variant constant: p(u,v) = min{1, θ/d_in(v)}
	eps       float64
	workers   int
	full      shape
	tiny      shape // seconds-scale variant for the package tests
}

// wcvTheta1000 is the WC-variant constant that makes the average full
// RR set of the hist-wcv graph about 1000 nodes. It was found once with
// internal/bench.CalibrateWCVariant(g, 1000, 7), which bisects θ over
// 2000 sets per probe and measured 1033 nodes at θ = 1.146. It is fixed
// here because the search takes about a minute; the traced run reports
// the size it gives as rrset.avg_size_full.
const wcvTheta1000 = 1.146

var workloads = []workload{
	{
		name: "subsim-wc", alg: subsim.AlgSUBSIM, deg: 8, graphSeed: 7,
		model: subsim.ModelWC, eps: 0.1, workers: 1,
		full: shape{n: 20000, k: 100, mcSamples: 2000, probeSets: 20000,
			fingerprint: fingerprint{n: 20000, m: 239849, hash: 0x8f38c4c17e4615ab}},
		tiny: shape{n: 2000, k: 10, mcSamples: 500, probeSets: 2000,
			fingerprint: fingerprint{n: 2000, m: 23917, hash: 0xacd0d7d204e9596}},
	},
	{
		name: "hist-wcv", alg: subsim.AlgHISTSubsim, deg: 8, graphSeed: 7,
		model: subsim.ModelWCVariant, wcvTheta: wcvTheta1000, eps: 0.1, workers: 1,
		full: shape{n: 100000, k: 200, mcSamples: 300, probeSets: 1000,
			fingerprint: fingerprint{n: 100000, m: 1199979, hash: 0x168be0c9f5a7ce73}},
		tiny: shape{n: 3000, k: 20, mcSamples: 200, probeSets: 200,
			fingerprint: fingerprint{n: 3000, m: 35982, hash: 0x7ebab1ba43bcdc14}},
	},
	{
		name: "subsim-bigk-w2", alg: subsim.AlgSUBSIM, deg: 8, graphSeed: 7,
		model: subsim.ModelWC, eps: 0.1, workers: 2,
		full: shape{n: 100000, k: 2000, mcSamples: 1000, probeSets: 20000,
			fingerprint: fingerprint{n: 100000, m: 1199979, hash: 0x168be0c9f5a7ce73}},
		tiny: shape{n: 4000, k: 200, mcSamples: 300, probeSets: 2000,
			fingerprint: fingerprint{n: 4000, m: 47927, hash: 0x22d725f96d6b7182}},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// genPA grows a directed preferential-attachment graph like
// graph.GenPreferentialAttachment, but keeps each node's picks in the
// order they were drawn, so a fixed seed always gives the same graph:
// nodes 0..deg form a bidirected clique, then each new node u draws deg
// distinct targets proportionally to degree and adds u→t, plus t→u with
// probability 1/2. Edge probabilities start at 0; assign a model after.
func genPA(n, deg int, seed uint64) (*graph.Graph, error) {
	if deg < 1 || n < deg+1 {
		return nil, fmt.Errorf("genPA: need deg >= 1 and n > deg, got n=%d deg=%d", n, deg)
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// One entry per edge endpoint: a uniform pick is a degree-weighted pick.
	targets := make([]int32, 0, 2*n*deg)
	for u := int32(0); u <= int32(deg); u++ {
		for v := u + 1; v <= int32(deg); v++ {
			if err := b.AddUndirected(u, v, 0); err != nil {
				return nil, err
			}
			targets = append(targets, u, v)
		}
	}
	picked := make([]int32, 0, deg)
	for u := int32(deg) + 1; u < int32(n); u++ {
		picked = picked[:0]
		for len(picked) < deg {
			t := targets[r.Intn(len(targets))]
			if t != u && !contains(picked, t) {
				picked = append(picked, t)
			}
		}
		for _, t := range picked {
			if err := b.AddEdge(u, t, 0); err != nil {
				return nil, err
			}
			if r.Bernoulli(0.5) {
				if err := b.AddEdge(t, u, 0); err != nil {
					return nil, err
				}
			}
			targets = append(targets, u, t)
		}
	}
	return b.Build(), nil
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func fingerprintOf(g *graph.Graph) fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	for v := int32(0); v < int32(g.N()); v++ {
		src, _ := g.InNeighbors(v)
		for _, u := range src {
			putU32(buf[:4], uint32(u))
			putU32(buf[4:], uint32(v))
			_, _ = h.Write(buf[:]) // hash.Hash writes never fail
		}
	}
	return fingerprint{n: g.N(), m: g.M(), hash: h.Sum64()}
}

func putU32(b []byte, x uint32) {
	b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
}

// csrBytes is the memory of g's CSR arrays: in and out offsets (8 B per
// node each), adjacency (4 B per edge each way), weights (8 B per edge
// each way), the in→out twin index (8 B per edge), and the three
// per-node arrays of the equal-probability fast path (8 B each).
func csrBytes(g *graph.Graph) int64 {
	n, m := int64(g.N()), g.M()
	return 2*8*(n+1) + m*(4+4+8+8+8) + 3*8*n
}

// setupTimes is the median cost of one set-up: graph generation, weight
// assignment, and the total including the fingerprint check.
type setupTimes struct {
	build, weights, total time.Duration
}

// setup generates and weights the workload graph reps times, checks the
// fingerprint each time, and returns the last graph with the median
// timings. Repeating the set-up is what makes setup_s a steady median.
func setup(w workload, s shape, reps int) (*graph.Graph, setupTimes, error) {
	var g *graph.Graph
	var build, weights, total []time.Duration
	for i := 0; i < reps; i++ {
		g = nil // let the previous repetition's graph be collected
		t0 := time.Now()
		var err error
		g, err = genPA(s.n, w.deg, w.graphSeed)
		if err != nil {
			return nil, setupTimes{}, err
		}
		t1 := time.Now()
		if w.model == subsim.ModelWCVariant {
			g.AssignWCVariant(w.wcvTheta)
		} else {
			g.AssignWC()
		}
		t2 := time.Now()
		if got := fingerprintOf(g); got != s.fingerprint {
			return nil, setupTimes{}, fmt.Errorf("%s: graph fingerprint %v, want %v", w.name, got, s.fingerprint)
		}
		t3 := time.Now()
		build = append(build, t1.Sub(t0))
		weights = append(weights, t2.Sub(t1))
		total = append(total, t3.Sub(t0))
	}
	return g, setupTimes{build: median(build), weights: median(weights), total: median(total)}, nil
}
