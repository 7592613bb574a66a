package dist

import (
	"sync"

	"ips/internal/obs"
)

// Counts accumulates the engine's kernel decisions and cache traffic for one
// evaluation scope.  The engine increments plain fields (no atomics in the
// hot loops); callers working across goroutines keep one Counts per worker,
// Merge them, and flush the total to an obs registry once.
type Counts struct {
	// Rolling, FFT, and Exact count (query, series) evaluations by kernel;
	// Exact is the ts.Dist fallback for degenerate pairs.
	Rolling, FFT, Exact int64
	// LBSkipped counts windows the rolling kernel's norm lower bound
	// excluded without touching their values.
	LBSkipped int64
	// Refined counts windows the fft kernel recomputed exactly.
	Refined int64
	// FFTCacheHits/Misses count padded-series-transform cache lookups.
	FFTCacheHits, FFTCacheMisses int64
	// PreparedHits/Misses count prepared-series cache lookups.
	PreparedHits, PreparedMisses int64
}

// Merge adds other into c.
func (c *Counts) Merge(other Counts) {
	c.Rolling += other.Rolling
	c.FFT += other.FFT
	c.Exact += other.Exact
	c.LBSkipped += other.LBSkipped
	c.Refined += other.Refined
	c.FFTCacheHits += other.FFTCacheHits
	c.FFTCacheMisses += other.FFTCacheMisses
	c.PreparedHits += other.PreparedHits
	c.PreparedMisses += other.PreparedMisses
}

// AddTo flushes the counts into the registry under the dist.* namespace
// (no-op on a nil registry, so spans-only observers cost nothing).
func (c *Counts) AddTo(m *obs.Registry) {
	if m == nil {
		return
	}
	m.Counter("dist.kernel.rolling").Add(c.Rolling)
	m.Counter("dist.kernel.fft").Add(c.FFT)
	m.Counter("dist.kernel.exact").Add(c.Exact)
	m.Counter("dist.rolling.lb_skipped").Add(c.LBSkipped)
	m.Counter("dist.fft.refined_windows").Add(c.Refined)
	m.Counter("dist.fft.cache.hits").Add(c.FFTCacheHits)
	m.Counter("dist.fft.cache.misses").Add(c.FFTCacheMisses)
	m.Counter("dist.prepared.cache.hits").Add(c.PreparedHits)
	m.Counter("dist.prepared.cache.misses").Add(c.PreparedMisses)
}

// Annotate records the kernel mix as span attributes (no-op on nil spans).
func (c *Counts) Annotate(sp *obs.Span) {
	sp.SetInt("dist.rolling", c.Rolling)
	sp.SetInt("dist.fft", c.FFT)
	sp.SetInt("dist.exact", c.Exact)
}

// Cache memoises prepared series by slice identity (base pointer + length),
// so callers that evaluate against the same underlying storage repeatedly —
// tree growers revisiting instances, concurrent transforms over a shared
// dataset — prepare each series once.  The cache retains the Prepared
// values (which alias their series) for its lifetime; scope it to a task.
// Safe for concurrent use; the prepared form is built outside the map lock,
// at most once per key.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
}

type cacheKey struct {
	first *float64
	n     int
}

type cacheEntry struct {
	once sync.Once
	p    *Prepared
}

// NewCache returns an empty prepared-series cache.
func NewCache() *Cache {
	return &Cache{m: map[cacheKey]*cacheEntry{}}
}

// Prepared returns the prepared form of s, building and memoising it on
// first sight of the slice identity.  Two slices share an entry only when
// they share both base pointer and length, i.e. they view the same values.
// Empty series are prepared fresh (they have no identity and cost nothing).
func (c *Cache) Prepared(s []float64, counts *Counts) *Prepared {
	if c == nil || len(s) == 0 {
		return Prepare(s)
	}
	key := cacheKey{first: &s[0], n: len(s)}
	c.mu.Lock()
	e := c.m[key]
	hit := e != nil
	if !hit {
		e = &cacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	if counts != nil {
		if hit {
			counts.PreparedHits++
		} else {
			counts.PreparedMisses++
		}
	}
	e.once.Do(func() { e.p = Prepare(s) })
	return e.p
}

// Size returns the number of cached prepared series.
func (c *Cache) Size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
