package mp

import (
	"math"

	"ips/internal/fft"
	"ips/internal/ts"
)

// MASS computes the z-normalised Euclidean distance profile of query q
// against every length-|q| window of t in O(N log N) using FFT-based sliding
// dot products (Mueen's Algorithm for Similarity Search) — the classic
// building block of STAMP-style matrix profiles.  The STOMP joins in this
// package amortise their dot products incrementally instead, but MASS is the
// right tool for one-off queries such as locating a shapelet inside a long
// recording.
func MASS(q, t []float64) []float64 {
	m := len(q)
	n := len(t) - m + 1
	if n <= 0 || m == 0 {
		return nil
	}
	dots := fft.SlidingDots(q, t)
	meanQ, stdQ := ts.MeanStd(q)
	means, stds := ts.MovingMeanStd(t, m)
	row := ts.NewZNormRow(m, meanQ, stdQ)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = math.Sqrt(row.SqDist(dots[i], means[i], stds[i]))
	}
	return out
}

// BestMatch returns the window offset of t whose z-normalised distance to q
// is smallest, together with that distance.  It returns (-1, +Inf) when t is
// shorter than q.
func BestMatch(q, t []float64) (int, float64) {
	prof := MASS(q, t)
	best, bestV := -1, math.Inf(1)
	for i, v := range prof {
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// TopMotifs returns up to k motif pairs of the profile: positions whose
// nearest-neighbour distances are smallest, each paired with its neighbour,
// with an exclusion zone of half the window between reported positions.
func (p *Profile) TopMotifs(k int) [][2]int {
	idxs := p.TopK(k, false, p.W/2)
	out := make([][2]int, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, [2]int{i, p.I[i]})
	}
	return out
}

// TopDiscords returns up to k discord positions of the profile: positions
// whose nearest-neighbour distances are largest, with an exclusion zone of
// half the window.
func (p *Profile) TopDiscords(k int) []int {
	return p.TopK(k, true, p.W/2)
}
