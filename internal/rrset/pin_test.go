package rrset

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"subsim/internal/graph"
	"subsim/internal/rng"
)

// TestSubsimArenaPinned pins SUBSIM's equal-probability output bit for
// bit: the FNV-1a hash of the arena (every node id, then every set end)
// of 2000 sets seeded the way im.Batcher seeds them, on a small
// WC-variant preferential-attachment graph, once without sentinels and
// once with every 50th node a sentinel, plus the generator's counters.
// TestRRInclusionMatchesEnumeration pins the distribution; this pins the
// draws, so an edit meant to leave them alone (a bounds-check or escape
// cleanup) fails here rather than only through the selection golden.
// Re-pin only after a change that is meant to reorder draws.
func TestSubsimArenaPinned(t *testing.T) {
	g, err := graph.GenPreferentialAttachment(2000, 4, false, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWCVariant(1.2)
	every50 := make([]bool, g.N())
	for v := 0; v < g.N(); v += 50 {
		every50[v] = true
	}
	for _, c := range []struct {
		name     string
		sentinel []bool
		hash     uint64
		stats    Stats
	}{
		{"no-sentinel", nil, 0xf20fd5d587567ecd,
			Stats{Sets: 2000, Nodes: 53667, EdgesExamined: 115676}},
		{"every-50th", every50, 0x82b2c412f1d34f59,
			Stats{Sets: 2000, Nodes: 21124, EdgesExamined: 42723, SentinelHits: 517}},
	} {
		gen := NewSubsim(g)
		arena := NewArena(0, 0)
		r := rng.New(0)
		for i := int64(0); i < 2000; i++ {
			r.Seed(batcherSeed(1, i))
			GenerateRandomInto(gen, arena, r, c.sentinel)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range arena.Data() {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			_, _ = h.Write(buf[:4]) // hash.Hash writes never fail
		}
		for _, e := range arena.Ends() {
			binary.LittleEndian.PutUint64(buf[:], uint64(e))
			_, _ = h.Write(buf[:])
		}
		if got := h.Sum64(); got != c.hash || gen.Stats() != c.stats {
			t.Errorf("%s: arena hash %#x, stats %+v; pinned %#x, %+v", c.name, got, gen.Stats(), c.hash, c.stats)
		}
	}
}
