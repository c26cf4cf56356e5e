// Package gocapture is the golden fixture for the goroutine-capture
// analyzer: inside `go func` literals spawned from //subsim:parallel
// functions, captured slices may only be written at parameter-derived
// indices, captured maps never, the captured slice/map headers never
// reassigned, and WaitGroup.Add never called from the goroutine body.
// Unannotated functions are out of scope, and coordination the index
// analysis cannot see is waived with //lint:allow capture.
package gocapture

import "sync"

// FillChunks is the well-formed disjoint-write decomposition of the
// per-worker fills: the worker index flows (directly or through
// derived locals and range variables) into every captured-slice index.
// No findings.
//
//subsim:parallel
func FillChunks(workers, chunk int, out []int64) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := w * chunk
			sub := out[start : start+chunk]
			for i := range sub {
				out[start+i] = int64(i) // index derived through start
				sub[i] = int64(i)       // sub is a goroutine-local: unchecked
			}
		}(w)
	}
	wg.Wait()
}

// FillRacy concentrates the contract violations: an Add racing the
// spawner's Wait, a shared-index slice write, a concurrent map write,
// and a header reassignment.
//
//subsim:parallel
func FillRacy(workers int, out []int64, m map[int]int64, hot []int64) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		go func(w int) {
			wg.Add(1) // want `sync.WaitGroup.Add inside a goroutine of parallel function FillRacy`
			defer wg.Done()
			out[0] = int64(w)           // want `not derived from a goroutine parameter`
			m[w] = int64(w)             // want `write to captured map m`
			hot = append(hot, int64(w)) // want `reassignment of captured slice hot`
		}(w)
	}
	wg.Wait()
}

// FillWaived writes one shared observability cell whose coordination
// lives outside the function; the waiver names it.
//
//subsim:parallel
func FillWaived(workers int, out, stats []int64) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = 1
			//lint:allow capture stats cell is read only after the join, last write wins
			stats[0] = int64(workers)
		}(w)
	}
	wg.Wait()
}

// fillUnmarked has the same shared-index write but no //subsim:parallel
// marker: the discipline is scoped to annotated functions.
func fillUnmarked(workers int, out []int64) {
	for w := 0; w < workers; w++ {
		go func(w int) {
			out[0] = int64(w)
		}(w)
	}
}
