// Package graph is the nodeterminism fixture for seeded graph
// generators; the directory suffix internal/graph places it inside the
// deterministic algorithm set.
package graph

// Source stands in for a seeded random stream.
type Source interface {
	Intn(n int) int
	Bernoulli(p float64) bool
}

// AttachSet draws distinct targets into a set, then walks the set while
// drawing more randomness: the runtime-randomised map order decides
// which target each later draw lands on, so a fixed seed does not give
// a fixed graph.
func AttachSet(r Source, targets []int32, deg int) [][2]int32 {
	picked := make(map[int32]struct{}, deg)
	for len(picked) < deg {
		picked[targets[r.Intn(len(targets))]] = struct{}{}
	}
	var edges [][2]int32
	for t := range picked { // want `map iteration in a deterministic algorithm package`
		if r.Bernoulli(0.5) {
			edges = append(edges, [2]int32{t, 0})
		}
	}
	return edges
}

// AttachSlice keeps the distinct targets in draw order, so every later
// draw pairs with the same target for a fixed seed.
func AttachSlice(r Source, targets []int32, deg int) [][2]int32 {
	picked := make([]int32, 0, deg)
	for len(picked) < deg {
		t := targets[r.Intn(len(targets))]
		if !contains(picked, t) {
			picked = append(picked, t)
		}
	}
	var edges [][2]int32
	for _, t := range picked {
		if r.Bernoulli(0.5) {
			edges = append(edges, [2]int32{t, 0})
		}
	}
	return edges
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
