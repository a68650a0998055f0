package main

import (
	"fmt"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: p90 needs at least 100 samples, p50 at least 20.
const minTail = 10

// percentileMs returns the pct-th percentile (nearest rank) of the samples
// in milliseconds. It refuses, with an error, a percentile that fewer than
// minTail samples lie beyond, so a short run cannot report a tail it did not
// see.
func percentileMs(samples []time.Duration, pct int) (float64, error) {
	n := len(samples)
	rank := (pct*n + 99) / 100 // ceil(pct·n/100), 1-based
	if n-rank < minTail || rank < 1 {
		need := 100 * minTail / (100 - pct)
		return 0, fmt.Errorf("p%d needs at least %d samples, the run has %d: raise --seconds", pct, need, n)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return ms(sorted[rank-1]), nil
}

// median returns the median of durations (the lower middle for an even
// count); the set-up metric reports it over repeated set-ups.
func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
