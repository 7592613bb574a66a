package dist

import (
	"context"
	"math"
	"sort"

	"ips/internal/errs"
	"ips/internal/fft"
	"ips/internal/obs"
	"ips/internal/ts"
)

// Batch is a set of queries prepared for evaluation against many series:
// per-query energies are precomputed and the queries are grouped by length,
// so per (series, length) work — the window Σt² vector from the prefix sums
// and the padded series FFT — is paid once per group instead of once per
// query.  A Batch is immutable after construction and safe for concurrent
// EvalScratchCtx calls against different (or the same) Prepared series.
type Batch struct {
	queries [][]float64
	qq      []float64
	finite  []bool
	groups  []group
	kernel  Kernel // forced kernel for non-degenerate pairs; KernelAuto picks per group
}

// group is the set of query indices sharing one length, ascending by length.
type group struct {
	m   int
	idx []int
}

// NewBatch prepares the queries for repeated evaluation.  The batch aliases
// the query slices; they must not be mutated while the batch is in use.
func NewBatch(queries [][]float64) *Batch {
	b := &Batch{
		queries: queries,
		qq:      make([]float64, len(queries)),
		finite:  make([]bool, len(queries)),
	}
	byLen := map[int][]int{}
	for i, q := range queries {
		qq := sumSq(q)
		b.qq[i] = qq
		b.finite[i] = !math.IsNaN(qq) && !math.IsInf(qq, 0)
		byLen[len(q)] = append(byLen[len(q)], i)
	}
	lens := make([]int, 0, len(byLen))
	for m := range byLen {
		lens = append(lens, m)
	}
	sort.Ints(lens)
	for _, m := range lens {
		b.groups = append(b.groups, group{m: m, idx: byLen[m]})
	}
	return b
}

// Len returns the number of queries in the batch.
func (b *Batch) Len() int { return len(b.queries) }

// SetKernel forces every non-degenerate evaluation onto the given kernel
// (KernelAuto restores the per-group crossover).  Kernel choice never
// changes results — it is the hook tests and benchmarks use to cross-check
// the rolling kernel against the fft kernel.  Must be called before the
// batch is shared across goroutines.
func (b *Batch) SetKernel(k Kernel) {
	if k == KernelExact {
		k = KernelAuto // the exact fallback is reserved for degenerate pairs
	}
	b.kernel = k
}

// EvalScratchCtx evaluates every query against p into out (which must hold
// Len() values), each byte-identical to ts.Dist(query, series), accumulating
// kernel accounting into c (nil is allowed).  Queries are processed grouped
// by length: the window Σt² vector is built once per group from the prefix
// sums, and the fft kernel reuses one cached padded series transform across
// every group whose pad size coincides.
//
// The working set — the window-energy vector and the fft buffers — is drawn
// from the caller-owned scratch s, grows once and is reused verbatim on the
// next call.  This is the steady-state path for callers that re-evaluate the
// same batch against a stream of series — the serve loop, CV folds — where
// it performs zero allocations after warm-up.  A nil s uses a per-call
// scratch.  s must not be shared across goroutines.
//
// Cancellation is cooperative at length-group granularity: between groups
// the context is checked, and once it is done the remaining groups are
// skipped and an error matching errs.ErrCanceled is returned.  On
// cancellation out holds the completed groups' values and arbitrary (stale)
// values for the rest; callers must discard it.
//
//ips:blocking
func (b *Batch) EvalScratchCtx(ctx context.Context, p *Prepared, out []float64, c *Counts, s *Scratch) error {
	if c == nil {
		c = &Counts{}
	}
	if s == nil {
		s = &Scratch{}
	}
	n := len(p.t)
	for _, g := range b.groups {
		if err := errs.Ctx(ctx, errs.StageKernel, "dist.batch"); err != nil {
			b.logCanceled(ctx)
			return err
		}
		m := g.m
		if m == 0 {
			for _, qi := range g.idx {
				out[qi] = 0 // ts.Dist: an empty query is at distance 0
				c.Exact++
			}
			continue
		}
		if n == 0 || m > n || !p.finite {
			b.logExactFallback(ctx, m, n, p.finite, len(g.idx))
			for _, qi := range g.idx {
				out[qi] = ts.Dist(b.queries[qi], p.t)
				c.Exact++
			}
			continue
		}
		w := n - m + 1
		if cap(s.winSq) < w {
			s.winSq = make([]float64, w)
		}
		winSq := s.winSq[:w]
		for j := 0; j < w; j++ {
			winSq[j] = p.WindowSqSum(j, m)
		}
		kernel := b.kernel
		if kernel == KernelAuto {
			kernel = chooseKernel(m, n)
		}
		if p.noFFT {
			kernel = KernelRolling // scratch-prepared: no resident transform to amortise
		}
		if kernel == KernelFFT {
			size := fft.NextPow2(n + m - 1)
			f, hit := p.ft(size)
			if f == nil {
				kernel = KernelRolling // impossible by construction
			} else {
				if hit {
					c.FFTCacheHits++
				} else {
					c.FFTCacheMisses++
				}
				if cap(s.dots) < w {
					s.dots = make([]float64, w)
				}
				dots := s.dots[:w]
				for _, qi := range g.idx {
					if !b.finite[qi] {
						out[qi] = ts.Dist(b.queries[qi], p.t)
						c.Exact++
						continue
					}
					var err error
					s.cbuf, err = f.SlidingDotsInto(b.queries[qi], dots, s.cbuf)
					if err != nil {
						out[qi] = ts.Dist(b.queries[qi], p.t)
						c.Exact++
						continue
					}
					c.FFT++
					out[qi] = b.fftMinShared(p, qi, winSq, dots, c)
				}
				continue
			}
		}
		for _, qi := range g.idx {
			if !b.finite[qi] {
				out[qi] = ts.Dist(b.queries[qi], p.t)
				c.Exact++
				continue
			}
			c.Rolling++
			out[qi] = b.rollingMinShared(p, qi, winSq, c)
		}
	}
	return nil
}

// logCanceled and logExactFallback exist to keep their variadic ...any
// arguments — which box one interface value per argument per call — out of
// EvalScratchCtx's group loop; in these straight-line bodies the boxing happens
// at most once per event instead of per iteration.
func (b *Batch) logCanceled(ctx context.Context) {
	obs.Log(ctx).Debug("batch evaluation canceled",
		"op", "dist.batch", "queries", len(b.queries))
}

func (b *Batch) logExactFallback(ctx context.Context, m, n int, finite bool, queries int) {
	obs.Log(ctx).Debug("batch group fell back to exact distances",
		"op", "dist.batch", "query_len", m, "series_len", n,
		"finite", finite, "queries", queries)
}

// fftMinShared converts the sliding dots of query qi into the approximate
// un-normalised profile in place and refines the candidate minima exactly.
// This is the batch engine's per-query inner loop; it must not allocate.
//
//ips:hotpath
func (b *Batch) fftMinShared(p *Prepared, qi int, winSq, dots []float64, c *Counts) float64 {
	qq := b.qq[qi]
	minHat := math.Inf(1)
	for j := range dots {
		sHat := winSq[j] - 2*dots[j] + qq
		if sHat < 0 {
			sHat = 0
		}
		dots[j] = sHat
		if sHat < minHat {
			minHat = sHat
		}
	}
	return p.refineMin(b.queries[qi], dots, minHat, qq, c)
}

// rollingMinShared is rollingMin with the per-group window Σt² vector
// already materialised (shared across every query of the length group).
// This is the batch engine's per-query inner loop; it must not allocate.
//
//ips:hotpath
func (b *Batch) rollingMinShared(p *Prepared, qi int, winSq []float64, c *Counts) float64 {
	q := b.queries[qi]
	qq := b.qq[qi]
	m := len(q)
	fm := float64(m)
	bound := p.errBound(qq)
	margin := 2*math.Sqrt(qq*bound) + bound
	best := math.Inf(1)
	lbT := math.Inf(1)
	for j, ws := range winSq {
		if a := ws + qq - lbT; a > 0 && a*a > 4*ws*qq {
			c.LBSkipped++
			continue
		}
		var s float64
		win := p.t[j : j+m]
		abandoned := false
		for l := range q {
			diff := win[l] - q[l]
			s += diff * diff
			if s >= best*fm {
				abandoned = true
				break
			}
		}
		if abandoned {
			continue
		}
		if v := s / fm; v < best {
			best = v
			lbT = s + margin
		}
	}
	return best
}
