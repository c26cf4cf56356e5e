package ring

import (
	"slices"
	"testing"
)

// TestReadDropsSlotUnderConstruction pins the seqlock read rule without
// relying on a race: a slot whose seq is odd (a write in progress) is
// counted as dropped and never handed to the reader, and so are records
// lost to wraparound.
func TestReadDropsSlotUnderConstruction(t *testing.T) {
	r := New(3, 2) // rounds up to 4 slots
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	for i := uint64(0); i < 6; i++ {
		r.Write(i, 10*i)
	}
	// Records 0 and 1 were overwritten. Fake a writer stuck inside
	// record 3's slot by leaving its seq odd.
	r.words[int(3&r.mask)*r.stride].Store(2*3 + 1)

	var got [][]uint64
	written, dropped := r.Read(func(i uint64, p []uint64) {
		if p[0] != i || p[1] != 10*i {
			t.Errorf("record %d payload %v", i, p)
		}
		got = append(got, slices.Clone(p))
	})
	if written != 6 || dropped != 3 {
		t.Fatalf("written, dropped = %d, %d; want 6, 3", written, dropped)
	}
	if want := [][]uint64{{2, 20}, {4, 40}, {5, 50}}; !slices.EqualFunc(got, want, slices.Equal[[]uint64]) {
		t.Fatalf("read %v, want %v", got, want)
	}
}
