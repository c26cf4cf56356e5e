package rrset

import (
	"testing"

	"subsim/internal/graph"
)

// TestScratchHintColdStart pins the scratch-sizing policy, cold start
// first: with no observed sets the hint must be the documented default,
// never zero (a zero hint would make every fresh clone eat log2(size)
// frontier reallocations on its first traversal).
func TestScratchHintColdStart(t *testing.T) {
	if got := scratchHint(Stats{}); got != defaultScratchCap {
		t.Errorf("cold start hint = %d, want defaultScratchCap %d", got, defaultScratchCap)
	}
	// Warm: 1.5× the observed average plus one.
	if got := scratchHint(Stats{Sets: 10, Nodes: 1000}); got != 151 {
		t.Errorf("avg=100 hint = %d, want 151", got)
	}
	// Tiny averages floor at the default rather than undershooting it.
	if got := scratchHint(Stats{Sets: 10, Nodes: 20}); got != defaultScratchCap {
		t.Errorf("avg=2 hint = %d, want floor %d", got, defaultScratchCap)
	}
	// Pathological early samples cap at maxScratchHint.
	if got := scratchHint(Stats{Sets: 1, Nodes: 1 << 20}); got != maxScratchHint {
		t.Errorf("avg=2^20 hint = %d, want cap %d", got, maxScratchHint)
	}
}

// TestNewTraversalColdStart checks that the SUBSIM frontier scratch,
// the traversal's only hint-sized buffer, honours the hint and defends
// against non-positive ones.
func TestNewTraversalColdStart(t *testing.T) {
	for _, tc := range []struct{ hint, want int }{
		{0, defaultScratchCap}, {-5, defaultScratchCap}, {100, 100},
	} {
		f := newFrontier(tc.hint)
		if cap(f.heads) != tc.want || cap(f.landings) != tc.want {
			t.Errorf("newFrontier(hint=%d): heads cap %d, landings cap %d, want %d",
				tc.hint, cap(f.heads), cap(f.landings), tc.want)
		}
	}
}

// TestCloneScratchSizing: a cold clone inherits the default, a warmed
// parent's clone inherits the data-driven hint.
func TestCloneScratchSizing(t *testing.T) {
	g := graph.GenLine(200, 1)
	gen := NewSubsim(g)
	cold := gen.Clone().(*Subsim)
	if got := cap(cold.f.landings); got != defaultScratchCap {
		t.Errorf("cold clone frontier cap = %d, want %d", got, defaultScratchCap)
	}
	// Fake a warmed parent whose average exceeds the default floor.
	gen.stats = Stats{Sets: 4, Nodes: 400}
	warm := gen.Clone().(*Subsim)
	if got, want := cap(warm.f.landings), scratchHint(gen.stats); got != want {
		t.Errorf("warm clone frontier cap = %d, want %d", got, want)
	}
}
