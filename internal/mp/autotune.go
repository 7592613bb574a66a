package mp

import (
	"math"
	"sync"
	"time"

	"ips/internal/obs"
)

// Tile-size autotuning.  The historical kernel used a fixed tilesPerWorker=4
// regardless of problem size, which over-cuts small joins (channel traffic
// dominates) and under-cuts large ones (a single slow tile serialises the
// tail).  Instead the kernel probes the per-cell walk cost once per process
// — a bounded synthetic self-join timed with obs.Stopwatch — and sizes tiles
// so each costs roughly targetTileCost, giving the dynamic scheduler enough
// slack to absorb uneven diagonals without shrinking tiles into scheduling
// noise.  The resulting tile count is cached per (n, w, workers), so a given
// join shape tiles identically for the whole process lifetime.
//
// Tiling is pure scheduling: every cell distance is bitwise reproducible and
// the merge order (not the tile schedule) defines the result, so the profile
// stays byte-identical for any tile size and worker count.
const (
	// targetTileCost is the walk time one tile should cost.  Large enough
	// that handing a tile over a channel is noise, small enough that the
	// scheduler can rebalance a slow worker several times per join.
	targetTileCost = 200 * time.Microsecond
	// minTilesPerWorker/maxTilesPerWorker clamp the probe's answer: at least
	// two tiles per worker so dynamic scheduling has something to rebalance,
	// at most 32 so tiny tiles never dominate with channel traffic.
	minTilesPerWorker = 2
	maxTilesPerWorker = 32
	// defaultCellCostNs backstops a degenerate probe (a clock with too
	// little resolution to see the probe walk).
	defaultCellCostNs = 2.0
)

var (
	probeOnce   sync.Once
	probedCost  float64 // nanoseconds per matrix cell
	tuneCacheMu sync.Mutex
	tuneCache   = map[tuneKey]int{}
)

type tuneKey struct{ n, w, workers int }

// cellCostNs returns the calibrated per-cell walk cost, probing on first
// use: one synthetic self-join walk of ~430k cells (about a millisecond),
// timed with a stopwatch.  The probe is bounded and runs at most once per
// process.
func cellCostNs() float64 {
	probeOnce.Do(func() {
		const pn, pw = 1024, 64
		t := make([]float64, pn)
		for i := range t {
			t[i] = math.Sin(float64(i) * 0.05)
		}
		wk := newSelfJoinWalker(t, pw, nil)
		n, lo := wk.n, pw/2+1
		pt := getPartial(n)
		cells := diagCells(lo, n)
		sw := obs.NewStopwatch()
		wk.walk(pt, tile{lo, n})
		el := sw.Elapsed()
		putPartial(pt)
		probedCost = float64(el.Nanoseconds()) / float64(cells)
		if !(probedCost > 0) || math.IsInf(probedCost, 1) {
			probedCost = defaultCellCostNs
		}
	})
	return probedCost
}

// diagCells returns the cell count of self-join diagonals [lo, hi) of an
// n×n upper triangle: sum over k of (n − k).
func diagCells(lo, hi int) int {
	a, b := hi-lo, hi-lo+1 // consecutive, so one of them is even
	return a * b / 2
}

// tuneTilesPerWorker returns the tiles-per-worker count for a join of
// totalCells cells on the given worker count, derived from the calibrated
// cell cost and cached per (n, w, workers).  Within one process a given key
// always answers the same value, so repeated joins of one shape — CV folds,
// per-class profiles — tile identically.
func tuneTilesPerWorker(n, w, workers, totalCells int) int {
	if workers <= 1 {
		return 1
	}
	key := tuneKey{n: n, w: w, workers: workers}
	tuneCacheMu.Lock()
	if v, ok := tuneCache[key]; ok {
		tuneCacheMu.Unlock()
		return v
	}
	tuneCacheMu.Unlock()
	perWorkerNs := cellCostNs() * float64(totalCells) / float64(workers)
	tpw := int(math.Round(perWorkerNs / float64(targetTileCost.Nanoseconds())))
	if tpw < minTilesPerWorker {
		tpw = minTilesPerWorker
	}
	if tpw > maxTilesPerWorker {
		tpw = maxTilesPerWorker
	}
	tuneCacheMu.Lock()
	// First store wins, so concurrent callers agree for the process lifetime
	// (they computed the same value anyway: the probed cost is fixed after
	// the once).
	if v, ok := tuneCache[key]; ok {
		tpw = v
	} else {
		tuneCache[key] = tpw
	}
	tuneCacheMu.Unlock()
	return tpw
}
