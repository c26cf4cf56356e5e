package timeline

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var tl *Timeline
	if tl.Now() != 0 || tl.Capacity() != 0 || tl.Workers() != 0 {
		t.Error("nil timeline accessors not zero")
	}
	if r := tl.Worker(3); r != nil {
		t.Error("nil timeline returned a ring")
	}
	snap := tl.Snapshot()
	if snap.Workers != 0 || len(snap.Records) != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}

	var r *Ring
	r.Record(PhaseGenerate, 1, 2) // must not panic
	if r.Now() != 0 || r.Worker() != 0 || r.Written() != 0 {
		t.Error("nil ring accessors not zero")
	}
	tl2 := New(8, nil)
	if tl2.Worker(-1) != nil {
		t.Error("negative worker index returned a ring")
	}
}

func TestPhaseNames(t *testing.T) {
	for p := Phase(0); p < numPhases; p++ {
		b, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var q Phase
		if err := q.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if q != p {
			t.Errorf("phase %d round-tripped to %d", p, q)
		}
	}
	var q Phase
	if err := q.UnmarshalText([]byte("no-such-phase")); err != nil || q != PhaseOther {
		t.Errorf("unknown phase parsed to %v, %v", q, nil)
	}
	if Phase(200).String() != "other" {
		t.Error("out-of-range phase String")
	}
}

// fakeClock is a deterministic timeline clock for golden tests.
func fakeClock() func() int64 {
	var t atomic.Int64
	return func() int64 { return t.Add(1000) }
}

func TestRecordAndSnapshot(t *testing.T) {
	tl := New(16, fakeClock())
	r0 := tl.Worker(0)
	r1 := tl.Worker(1)
	if tl.Workers() != 2 {
		t.Fatalf("Workers() = %d", tl.Workers())
	}
	if r0.Worker() != 0 || r1.Worker() != 1 {
		t.Fatal("ring worker ids wrong")
	}
	// Same ring back on repeat lookup (the atomic fast path).
	if tl.Worker(0) != r0 {
		t.Fatal("Worker(0) not stable")
	}

	r1.Record(PhaseReduce, 500, 900)
	r0.Record(PhaseGenerate, 100, 300)
	r0.Record(PhaseGenerate, 300, 450)

	snap := tl.Snapshot()
	if snap.Workers != 2 || snap.Written != 3 || snap.Dropped != 0 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Records) != 3 {
		t.Fatalf("got %d records", len(snap.Records))
	}
	// Sorted by start time regardless of which ring they came from.
	want := []Record{
		{Worker: 0, Phase: PhaseGenerate, StartNS: 100, EndNS: 300},
		{Worker: 0, Phase: PhaseGenerate, StartNS: 300, EndNS: 450},
		{Worker: 1, Phase: PhaseReduce, StartNS: 500, EndNS: 900},
	}
	for i, rec := range snap.Records {
		if rec != want[i] {
			t.Errorf("records[%d] = %#v, want %#v", i, rec, want[i])
		}
	}
}

func TestRingWraparoundDropCount(t *testing.T) {
	tl := New(4, fakeClock())
	r := tl.Worker(0)
	const writes = 10
	for i := 0; i < writes; i++ {
		base := int64(i * 100)
		r.Record(PhaseGenerate, base, base+50)
	}
	if r.Written() != writes {
		t.Fatalf("Written = %d", r.Written())
	}
	snap := tl.Snapshot()
	if len(snap.Records) != 4 {
		t.Fatalf("got %d records, want capacity 4", len(snap.Records))
	}
	if snap.Dropped != writes-4 {
		t.Fatalf("Dropped = %d, want %d", snap.Dropped, writes-4)
	}
	// The survivors are the newest four, in order.
	for i, rec := range snap.Records {
		wantStart := int64((writes - 4 + i) * 100)
		if rec.StartNS != wantStart {
			t.Errorf("records[%d].StartNS = %d, want %d", i, rec.StartNS, wantStart)
		}
	}
	if snap.Written != writes {
		t.Errorf("snapshot Written = %d", snap.Written)
	}
}

func TestCapacityRounding(t *testing.T) {
	if got := New(5, nil).Capacity(); got != 8 {
		t.Errorf("capacity 5 rounded to %d, want 8", got)
	}
	if got := New(0, nil).Capacity(); got != DefaultCapacity {
		t.Errorf("capacity 0 → %d, want DefaultCapacity", got)
	}
}

// TestConcurrentRecordDuringExport hammers one ring from its writer
// goroutine while a reader loops Snapshot, asserting under -race that
// the seqlock never emits a torn record. Each record is written with
// EndNS = StartNS + 7, so any mix of two generations is detectable.
func TestConcurrentRecordDuringExport(t *testing.T) {
	tl := New(64, fakeClock())
	const writes = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r := tl.Worker(0)
		for i := 0; i < writes; i++ {
			base := int64(i) * 13
			r.Record(Phase(i%int(numPhases)), base, base+7)
		}
	}()
	var snaps, torn int
	go func() {
		defer wg.Done()
		for {
			snap := tl.Snapshot()
			snaps++
			for _, rec := range snap.Records {
				if rec.EndNS-rec.StartNS != 7 || rec.StartNS%13 != 0 {
					torn++
				}
			}
			if snap.Written >= writes {
				return
			}
		}
	}()
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d torn records escaped the seqlock across %d snapshots", torn, snaps)
	}
	final := tl.Snapshot()
	if final.Written != writes {
		t.Fatalf("Written = %d, want %d", final.Written, writes)
	}
	// 64-slot ring, 20000 writes: exactly writes-64 dropped at rest.
	if final.Dropped != writes-64 {
		t.Fatalf("Dropped = %d, want %d", final.Dropped, writes-64)
	}
}

// TestConcurrentWorkerGrowth races ring creation against snapshotting;
// the copy-on-write vector must never present a half-built view.
func TestConcurrentWorkerGrowth(t *testing.T) {
	tl := New(8, fakeClock())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := tl.Worker(w)
			for i := 0; i < 100; i++ {
				base := int64(i * 10)
				r.Record(PhaseGenerate, base, base+5)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := tl.Snapshot()
			if snap.Workers > 8 {
				t.Errorf("Workers = %d", snap.Workers)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := tl.Workers(); got != 8 {
		t.Fatalf("Workers = %d, want 8", got)
	}
}

func TestAllocFreeRecordPaths(t *testing.T) {
	var nilRing *Ring
	if allocs := testing.AllocsPerRun(100, func() {
		nilRing.Record(PhaseGenerate, nilRing.Now(), nilRing.Now())
	}); allocs != 0 {
		t.Errorf("nil ring Record: %v allocs/op, want 0", allocs)
	}
	tl := New(64, fakeClock())
	r := tl.Worker(0)
	if allocs := testing.AllocsPerRun(100, func() {
		r.Record(PhaseGenerate, r.Now(), r.Now())
	}); allocs != 0 {
		t.Errorf("enabled ring Record: %v allocs/op, want 0", allocs)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	tl := New(8, fakeClock())
	tl.Worker(0).Record(PhaseSelect, 10, 20)
	out, err := json.Marshal(tl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"workers":1,"written":1,"dropped":0,"records":[{"worker":0,"phase":"select","start_ns":10,"end_ns":20}]}`
	if string(out) != want {
		t.Errorf("snapshot JSON = %s\nwant          %s", out, want)
	}
}

func BenchmarkRecord(b *testing.B) {
	tl := New(DefaultCapacity, nil)
	r := tl.Worker(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := r.Now()
		r.Record(PhaseGenerate, t0, r.Now())
	}
}

func BenchmarkRecordNil(b *testing.B) {
	var r *Ring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := r.Now()
		r.Record(PhaseGenerate, t0, r.Now())
	}
}
