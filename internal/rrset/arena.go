package rrset

// Arena is a reusable, append-only buffer that RR sets are generated
// into back to back: one contiguous []int32 of node ids plus an array of
// per-set end offsets (CSR over sets). Generators append through
// Generator.GenerateInto, which costs zero allocations once the arena
// has grown to its steady-state capacity; Reset recycles the memory for
// the next batch.
//
// An Arena is not safe for concurrent use. The Batcher keeps one arena
// per worker (or generates straight into one shard-local arena per
// worker of coverage.Sharded), which is what keeps parallel generation
// allocation-free AND worker-count independent.
type Arena struct {
	data []int32
	ends []int64 // ends[i] is the exclusive end of set i in data
}

// NewArena returns an arena pre-sized for about sets RR sets totalling
// about nodes node ids. Zero hints are valid and mean "grow on demand".
func NewArena(sets, nodes int) *Arena {
	a := &Arena{}
	if nodes > 0 {
		a.data = make([]int32, 0, nodes)
	}
	if sets > 0 {
		a.ends = make([]int64, 0, sets)
	}
	return a
}

// Reset forgets all sets but keeps the allocated capacity.
func (a *Arena) Reset() {
	a.data = a.data[:0]
	a.ends = a.ends[:0]
}

// Reserve grows the arena so that about sets more RR sets totalling
// about nodes more ids fit without reallocation. Growth is geometric
// (at least double the current capacity) so repeated Reserve calls stay
// amortised O(1) per element. It never shrinks.
func (a *Arena) Reserve(sets, nodes int) {
	a.data = grow(a.data, nodes)
	a.ends = grow(a.ends, sets)
}

// Len returns the number of RR sets in the arena.
func (a *Arena) Len() int { return len(a.ends) }

// NumNodes returns the total number of node ids across all sets.
func (a *Arena) NumNodes() int { return len(a.data) }

// Set returns the i-th RR set as a view into the arena. The slice is
// invalidated by the next append or Reset; copy it to retain it.
func (a *Arena) Set(i int) []int32 {
	start := int64(0)
	if i > 0 {
		start = a.ends[i-1]
	}
	return a.data[start:a.ends[i]:a.ends[i]]
}

// Data returns the flat node-id buffer of all sets back to back; Ends
// the per-set exclusive end offsets. Both are live read-only views for
// the CSR index builds of coverage.Sharded; they are invalidated by the
// next append or Reset.
func (a *Arena) Data() []int32 { return a.data }

// Ends returns the per-set exclusive end offsets (see Data).
func (a *Arena) Ends() []int64 { return a.ends }

// Append copies one RR set into the arena as a committed set. It is the
// generic ingestion path for callers that route already-generated sets
// into shard-local arenas (coverage.Sharded); generators writing in
// place still go through GenerateInto, which skips the copy.
func (a *Arena) Append(set []int32) {
	a.data = append(a.data, set...)
	a.ends = append(a.ends, int64(len(a.data)))
}

// DropLast removes the most recently committed set, returning its node
// ids to the free tail of the buffer. It is how the direct fill path
// discards a sentinel-terminated set in place — the set is
// generated directly into its shard's arena and truncated on detection
// instead of being filtered by a copy pass. Panics if the arena is
// empty.
func (a *Arena) DropLast() {
	n := len(a.ends) - 1
	start := int64(0)
	if n > 0 {
		start = a.ends[n-1]
	}
	a.data = a.data[:start]
	a.ends = a.ends[:n]
}

// start returns the offset new nodes will be appended at.
func (a *Arena) start() int { return len(a.data) }

// commit seals the pending tail [start, len(data)) as one RR set. buf
// must be the slice returned by the generator's append chain (it may
// have been reallocated away from a.data by growth).
func (a *Arena) commit(buf []int32) {
	a.data = buf
	a.ends = append(a.ends, int64(len(buf)))
}

// grow returns buf with capacity for at least extra more elements,
// growing geometrically to keep repeated reserves amortised O(1).
func grow[T int32 | int64](buf []T, extra int) []T {
	need := len(buf) + extra
	if need <= cap(buf) {
		return buf
	}
	grown := make([]T, len(buf), max(2*cap(buf), need))
	copy(grown, buf)
	return grown
}
