package main

import (
	"math"
	"sort"
	"time"
)

// tailRead is one percentile read under the benchmark's sample-size rule.
type tailRead struct {
	Value float64 `json:"value"`
	// Pct is the percentile actually reported: the one asked for, or the
	// highest lower one that still has at least minBeyond samples above it.
	Pct float64 `json:"pct"`
	N   int     `json:"n"`
}

// minBeyond is how many samples must lie above a reported percentile.  A
// p99 over 200 samples rests on two values and jumps from run to run; the
// helper reports p95 instead and says so.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs, lowered to the
// highest percentile with at least minBeyond samples beyond it.  ok is false
// when no percentile qualifies (minBeyond samples or fewer).  xs is not
// modified.
func percentile(xs []float64, p float64) (tailRead, bool) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		return tailRead{N: n}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return tailRead{Value: s[rank-1], Pct: 100 * float64(rank) / float64(n), N: n}, true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
