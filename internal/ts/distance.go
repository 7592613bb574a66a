package ts

import "math"

// SqDist returns the squared Euclidean distance between equal-length a and b.
func SqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// EuclideanDist returns the Euclidean distance between equal-length a and b.
func EuclideanDist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Dist implements Def. 4 of the paper: the minimum, over all alignments of
// the shorter series inside the longer one, of the length-normalised squared
// Euclidean distance
//
//	dist(Tp, Tq) = min_j (1/|Tp|) Σ_l (tq_{j+l-1} − tp_l)²   (|Tq| ≥ |Tp|).
//
// The arguments may be passed in either order; the shorter one slides.
// The result is the minimum over alignments of the fully-accumulated
// left-to-right sum: early-abandoned windows never update the minimum, so a
// partial sum can never masquerade as a distance.
//
// Callers evaluating many queries against the same series (the shapelet
// transform, candidate scoring) should use the batched engine in
// internal/dist, which precomputes per-series prefix statistics once and
// returns byte-identical values per pair.
func Dist(p, q []float64) float64 {
	if len(p) > len(q) {
		p, q = q, p
	}
	if len(p) == 0 {
		return 0
	}
	best := math.Inf(1)
	for j := 0; j+len(p) <= len(q); j++ {
		var s float64
		win := q[j : j+len(p)]
		abandoned := false
		for l := range p {
			d := win[l] - p[l]
			s += d * d
			if s >= best*float64(len(p)) {
				abandoned = true // early abandon: cannot beat the best alignment
				break
			}
		}
		if abandoned {
			continue
		}
		if v := s / float64(len(p)); v < best {
			best = v
		}
	}
	return best
}

// DistProfile returns the Def. 4 distance of q against every alignment inside
// t, i.e. out[j] = (1/|q|) Σ (t[j+l]−q[l])².  It is computed with cumulative
// sums and a single sliding dot product pass in O(|t|·|q|) worst case but with
// the quadratic term vectorised; callers that need only the minimum should
// use Dist, which early-abandons, and callers profiling many queries against
// one series should use the batched engine in internal/dist.
//
// Degenerate inputs yield nil: a query longer than the series has no
// alignment, and an empty query has no profile (every "alignment" of nothing
// would divide by zero; Dist defines that case as distance 0 instead).
func DistProfile(q, t []float64) []float64 {
	m := len(q)
	if m == 0 {
		return nil
	}
	n := len(t) - m + 1
	if n <= 0 {
		return nil
	}
	// Σ (t−q)² = Σt² − 2Σtq + Σq².
	var qq float64
	for _, v := range q {
		qq += v * v
	}
	// Rolling Σt² over windows.
	out := make([]float64, n)
	var tt float64
	for i := 0; i < m; i++ {
		tt += t[i] * t[i]
	}
	dots := SlidingDots(q, t)
	fm := float64(m)
	for j := 0; ; j++ {
		d := tt - 2*dots[j] + qq
		if d < 0 {
			d = 0
		}
		out[j] = d / fm
		if j+1 >= n {
			break
		}
		tt += t[j+m]*t[j+m] - t[j]*t[j]
	}
	return out
}

// znormEps is the standard deviation below which a subsequence counts as
// constant in ZNormSqDistFromStats.
const znormEps = 1e-12

// ZNormSqDistFromStats returns the z-normalised squared Euclidean distance of
// two length-w subsequences given their sliding dot product qt, their means
// and standard deviations.  This is the standard matrix-profile identity
//
//	d² = 2w (1 − (qt − w μa μb) / (w σa σb)).
//
// Near-constant subsequences are handled conventionally: two constants are at
// distance 0, a constant against a non-constant at distance √(2w)² = 2w.
//
// This runs once per matrix-profile cell; it must stay allocation-free.
//
//ips:hotpath
func ZNormSqDistFromStats(qt float64, w int, meanA, stdA, meanB, stdB float64) float64 {
	return NewZNormRow(w, meanA, stdA).SqDist(qt, meanB, stdB)
}

// ZNormRow is subsequence A's side of ZNormSqDistFromStats, computed once
// for a caller that scores one subsequence against many (a matrix-profile
// row).  It holds fw·meanA and fw·stdA, the products the identity forms
// first when fw*meanA*meanB and fw*stdA*stdB are evaluated left to right,
// so SqDist returns the same bits whether or not the row is reused.
type ZNormRow struct {
	twoFw, fwMean, fwStd float64
	flat                 bool // A is constant (std < znormEps)
}

// NewZNormRow returns the row of a length-w subsequence with the given
// mean and standard deviation.
func NewZNormRow(w int, mean, std float64) ZNormRow {
	fw := float64(w)
	return ZNormRow{twoFw: 2 * fw, fwMean: fw * mean, fwStd: fw * std, flat: std < znormEps}
}

// SqDist returns ZNormSqDistFromStats(qt, w, meanA, stdA, mean, std) for
// the row's subsequence A.
//
//ips:hotpath
func (r ZNormRow) SqDist(qt, mean, std float64) float64 {
	if std < znormEps {
		if r.flat {
			return 0
		}
		return r.twoFw
	}
	if r.flat {
		return r.twoFw
	}
	corr := (qt - r.fwMean*mean) / (r.fwStd * std)
	// Huge-magnitude (but finite) inputs overflow the sliding statistics:
	// dots and variances reach ±Inf and Inf−Inf / Inf÷Inf turn corr into
	// NaN, which the clamps below cannot catch.  Treat such garbage as zero
	// correlation so the distance stays finite, in [0, 4w], and — crucially
	// for the tiled kernel — deterministic, instead of leaking NaN into the
	// profile where it would poison every min-reduce.
	if math.IsNaN(corr) {
		corr = 0
	}
	if corr > 1 {
		corr = 1
	}
	if corr < -1 {
		corr = -1
	}
	return r.twoFw * (1 - corr)
}

// DTW returns the dynamic time warping distance between a and b under the
// squared point cost, constrained to a Sakoe-Chiba band of half-width window
// (window < 0 means unconstrained).  The returned value is the square root of
// the accumulated cost, matching the usual 1NN-DTW convention.
func DTW(a, b []float64, window int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	if window < 0 {
		window = max(n, m)
	}
	// The band must be at least |n−m| wide for a path to exist.
	if w := abs(n - m); window < w {
		window = w
	}
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo := max(1, i-window)
		hi := min(m, i+window)
		for j := lo; j <= hi; j++ {
			d := a[i-1] - b[j-1]
			cost := d * d
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = cost + best
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(prev[m])
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
