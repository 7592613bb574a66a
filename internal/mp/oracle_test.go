package mp

import (
	"math"

	"ips/internal/ts"
)

// The diagonal-at-a-time STOMP walkers below are the reference the
// row-major production walkers are pinned to bit for bit.  They walk each
// diagonal from its first cell to its last with rollDot, score every cell
// with ts.ZNormSqDistFromStats, test the validity masks per cell and offer
// every distance to the partial profile individually — the simplest
// possible evaluation order over the same arithmetic.

// diagSelfJoin is the diagonal-walk reference for SelfJoinCtx: the same
// sliding statistics, seed dots and exclusion zone, one tile covering every
// diagonal, the same min-merge.
func diagSelfJoin(t []float64, w int, valid []bool) *Profile {
	n := len(t) - w + 1
	if n <= 0 || w <= 0 {
		return &Profile{W: w}
	}
	p := &Profile{P: make([]float64, n), I: make([]int, n), W: w}
	excl := w / 2
	if excl < 1 {
		excl = 1
	}
	lo := excl + 1
	if lo >= n {
		for i := range p.P {
			p.P[i] = math.Inf(1)
			p.I[i] = -1
		}
		return p
	}
	means, stds := ts.MovingMeanStd(t, w)
	first := ts.SlidingDots(t[:w], t)
	pt := getPartial(n)
	for k := lo; k < n; k++ {
		dot := first[k]
		for i, j := 0, k; j < n; i, j = i+1, j+1 {
			if i > 0 {
				dot = rollDot(dot, t[i-1], t[j-1], t[i+w-1], t[j+w-1])
			}
			if valid != nil && (!valid[i] || !valid[j]) {
				continue
			}
			d := ts.ZNormSqDistFromStats(dot, w, means[i], stds[i], means[j], stds[j])
			pt.update(i, d, j)
			pt.update(j, d, i)
		}
	}
	mergePartials([]*partial{pt}, p)
	return p
}

// diagABJoin is the diagonal-walk reference for ABJoinCtx: every diagonal
// j−i = k ∈ (−na, nb) of the cross matrix is walked from its first cell,
// seeded from ab[k] (k ≥ 0, entering at row 0) or ba[−k] (k < 0, entering
// at row −k).
func diagABJoin(a, b []float64, w int, validA, validB []bool) *Profile {
	na := len(a) - w + 1
	nb := len(b) - w + 1
	if na <= 0 || nb <= 0 || w <= 0 {
		return &Profile{W: w}
	}
	meansA, stdsA := ts.MovingMeanStd(a, w)
	meansB, stdsB := ts.MovingMeanStd(b, w)
	ab := ts.SlidingDots(a[:w], b)
	ba := ts.SlidingDots(b[:w], a)
	p := &Profile{P: make([]float64, na), I: make([]int, na), W: w}
	pt := getPartial(na)
	for k := -(na - 1); k < nb; k++ {
		i0, j0, dot := 0, k, 0.0
		if k < 0 {
			i0, j0 = -k, 0
			dot = ba[i0]
		} else {
			dot = ab[j0]
		}
		for i, j := i0, j0; i < na && j < nb; i, j = i+1, j+1 {
			if i > i0 {
				dot = rollDot(dot, a[i-1], b[j-1], a[i+w-1], b[j+w-1])
			}
			if validA != nil && !validA[i] || validB != nil && !validB[j] {
				continue
			}
			d := ts.ZNormSqDistFromStats(dot, w, meansA[i], stdsA[i], meansB[j], stdsB[j])
			pt.update(i, d, j)
		}
	}
	mergePartials([]*partial{pt}, p)
	return p
}
