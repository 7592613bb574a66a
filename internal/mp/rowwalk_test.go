package mp

import (
	"fmt"
	"math/rand"
	"testing"

	"ips/internal/ts"
)

// oracleWorkers are the worker counts every pinned case runs at: the
// row-major walkers must equal the diagonal oracle bit for bit under any
// tiling.
var oracleWorkers = []int{1, 2, 3, 8}

// oracleLengths are the candidate lengths ip.Config's default ratios
// (0.1 … 0.5, floored at 4) give for instances of length m.
func oracleLengths(m int) []int {
	var out []int
	seen := map[int]bool{}
	for _, r := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		l := max(int(r*float64(m)), 4)
		if l <= m && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// ipShaped concatenates qs random-walk instances of length m the way
// ip.Generate does and returns the series with its instance starts.
func ipShaped(qs, m int, seed int64) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	series := make([]float64, 0, qs*m)
	starts := make([]int, qs)
	for q := range starts {
		starts[q] = len(series)
		v := rng.NormFloat64()
		for i := 0; i < m; i++ {
			v += rng.NormFloat64()
			series = append(series, v)
		}
	}
	return series, starts
}

// shortRunMask returns a mask of n positions whose valid runs are shorter
// than the exclusion zone of window w, separated by invalid gaps.
func shortRunMask(n, w int) []bool {
	excl := max(w/2, 1)
	valid := make([]bool, n)
	for i := range valid {
		valid[i] = i%(excl+2) < excl-1 || i%(excl+2) == excl
	}
	return valid
}

// pinSelf requires SelfJoinCtx at every oracle worker count to equal the
// diagonal oracle bitwise.
func pinSelf(t *testing.T, label string, series []float64, w int, valid []bool) {
	t.Helper()
	want := diagSelfJoin(series, w, valid)
	for _, workers := range oracleWorkers {
		got := selfJoin(t, series, w, valid, Options{Workers: workers})
		requireIdentical(t, got, want, fmt.Sprintf("%s/w=%d/workers=%d", label, w, workers))
	}
}

// pinAB is pinSelf for ABJoinCtx against the AB diagonal oracle.
func pinAB(t *testing.T, label string, a, b []float64, w int, validA, validB []bool) {
	t.Helper()
	want := diagABJoin(a, b, w, validA, validB)
	for _, workers := range oracleWorkers {
		got := abJoin(t, a, b, w, validA, validB, Options{Workers: workers})
		requireIdentical(t, got, want, fmt.Sprintf("%s/w=%d/workers=%d", label, w, workers))
	}
}

// constantStretches returns a random walk of length n with flat runs
// longer than w spliced in, so many windows have std below 1e-12 (and
// some pairs of constant windows sit at distance exactly 0).
func constantStretches(n, w int, seed int64) []float64 {
	series := randomSeries(n, seed)
	for at := n / 8; at+2*w < n; at += n / 3 {
		for i := at; i < at+w+w/2; i++ {
			series[i] = 2.5
		}
	}
	return series
}

// hugeMagnitudes scales a random series until its sliding statistics
// overflow, which drives the correlation to NaN (the input class of
// TestSelfJoinHugeMagnitudesNoNaN).
func hugeMagnitudes(n int, seed int64, scale float64) []float64 {
	series := randomSeries(n, seed)
	for i := range series {
		series[i] *= scale
	}
	return series
}

// TestSelfJoinMatchesDiagonalOracle pins the row-major self-join walker to
// the diagonal-at-a-time reference bit for bit (P bits and I) on
// instance-profile masks for QS ∈ {2,3,10} at every default length, on
// masks whose valid runs are shorter than the exclusion zone, on an
// all-invalid and a nil mask, on constant windows, on overflow-scale
// inputs and on the property suite's random cases.
func TestSelfJoinMatchesDiagonalOracle(t *testing.T) {
	for _, qs := range []int{2, 3, 10} {
		for _, m := range []int{24, 96} {
			series, starts := ipShaped(qs, m, int64(qs*1000+m))
			for _, L := range oracleLengths(m) {
				pinSelf(t, fmt.Sprintf("ip/qs=%d/m=%d", qs, m), series, L, ts.BoundaryMask(starts, len(series), L))
			}
		}
	}
	series := randomSeries(300, 21)
	for _, w := range []int{4, 9, 16} {
		n := len(series) - w + 1
		pinSelf(t, "short-runs", series, w, shortRunMask(n, w))
		pinSelf(t, "all-invalid", series, w, make([]bool, n))
		pinSelf(t, "nil-mask", series, w, nil)
	}
	for _, w := range []int{6, 16} {
		flat := constantStretches(240, w, 22)
		pinSelf(t, "constant", flat, w, nil)
		pinSelf(t, "constant-short-runs", flat, w, shortRunMask(len(flat)-w+1, w))
	}
	pinSelf(t, "all-constant", make([]float64, 64), 8, nil)
	pinSelf(t, "huge-1e180", hugeMagnitudes(100, 13, 1e180), 8, nil)
	pinSelf(t, "huge-1e170", hugeMagnitudes(150, 8, 1e170), 16, nil)
	for seed := int64(0); seed < 200; seed++ {
		pc := genCase(seed)
		pinSelf(t, fmt.Sprintf("property/seed=%d", seed), pc.t, pc.w, pc.valid)
	}
}

// TestABJoinMatchesDiagonalOracle pins the row-major AB-join walker to the
// AB diagonal reference bit for bit: BASE-shaped joins (a class's own
// instances against the rest, both boundary-masked), a shorter and a
// longer b, masks with short runs, all-invalid and nil masks, constant
// windows, overflow-scale inputs and random cases.
func TestABJoinMatchesDiagonalOracle(t *testing.T) {
	for _, qs := range []int{2, 3, 10} {
		own, ownStarts := ipShaped(qs, 48, int64(qs))
		rest, restStarts := ipShaped(qs+2, 48, int64(qs+100))
		for _, L := range oracleLengths(48) {
			pinAB(t, fmt.Sprintf("base/qs=%d", qs), own, rest, L,
				ts.BoundaryMask(ownStarts, len(own), L), ts.BoundaryMask(restStarts, len(rest), L))
			pinAB(t, fmt.Sprintf("base-swapped/qs=%d", qs), rest, own, L,
				ts.BoundaryMask(restStarts, len(rest), L), ts.BoundaryMask(ownStarts, len(own), L))
		}
	}
	a, b := randomSeries(180, 31), randomSeries(90, 32)
	for _, w := range []int{4, 12} {
		na, nb := len(a)-w+1, len(b)-w+1
		pinAB(t, "nil-masks", a, b, w, nil, nil)
		pinAB(t, "nil-masks-swapped", b, a, w, nil, nil)
		pinAB(t, "short-runs", a, b, w, shortRunMask(na, w), shortRunMask(nb, w))
		pinAB(t, "all-invalid-a", a, b, w, make([]bool, na), nil)
		pinAB(t, "all-invalid-b", a, b, w, nil, make([]bool, nb))
	}
	pinAB(t, "constant", constantStretches(200, 10, 33), constantStretches(160, 10, 34), 10, nil, nil)
	pinAB(t, "all-constant", make([]float64, 40), constantStretches(120, 8, 35), 8, nil, nil)
	pinAB(t, "huge", hugeMagnitudes(100, 36, 1e180), randomSeries(70, 37), 8, nil, nil)
	pinAB(t, "single-window", randomSeries(8, 38), randomSeries(50, 39), 8, nil, nil)
	for seed := int64(1000); seed < 1100; seed++ {
		ca, cb := genCase(seed), genCase(seed+5000)
		if len(cb.t)-ca.w+1 <= 0 {
			continue
		}
		pinAB(t, fmt.Sprintf("property/seed=%d", seed), ca.t, cb.t, ca.w, ca.valid, nil)
	}
}
