package main

import (
	"slices"
	"time"
)

// median returns the middle value of a non-empty d (the mean of the two
// middle values for an even count).
func median(d []time.Duration) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of d that has at least tailBeyond
// samples above it, and that percentile. The caller supplies more than
// tailBeyond samples.
func tail(d []time.Duration) (v time.Duration, pct float64) {
	s := slices.Clone(d)
	slices.Sort(s)
	i := len(s) - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// interval is a half-open span [lo, hi) in nanoseconds since a run's
// epoch.
type interval struct{ lo, hi int64 }

// union sorts iv and merges overlapping or touching intervals in place,
// returning the disjoint cover.
func union(iv []interval) []interval {
	if len(iv) == 0 {
		return iv
	}
	slices.SortFunc(iv, func(a, b interval) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x.lo <= last.hi {
			last.hi = max(last.hi, x.hi)
			continue
		}
		out = append(out, x)
	}
	return out
}

// length is the total length of disjoint intervals.
func length(iv []interval) int64 {
	var n int64
	for _, x := range iv {
		n += x.hi - x.lo
	}
	return n
}

// overlap is the length of the intersection of two sorted disjoint
// interval lists.
func overlap(a, b []interval) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			n += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return n
}
