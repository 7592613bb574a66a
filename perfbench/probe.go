package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"ips/internal/obs"
)

// On a shared host the program's timed figures move with the host.  On a
// 2-vCPU host, per-core speed moved by up to half within seconds and
// shifted for minutes at a time with the load of other tenants, and fit
// and predict times moved with it.  So a run samples the per-core speed
// while it measures: every probeEvery, a probe runs one pass of a fixed
// kernel on a thread of its own and times the pass in that thread's CPU
// time.  A timed figure is then scaled by probeNominal over the mean pass
// time during the call, so a change of host speed, which slows the passes
// and the program alike, cancels out, and a change of the program does
// not touch the passes.
//
// The kernel is the benchmark's own: a plain STOMP self-join of a short
// series, the dot-product recurrence the program's instance profiles run
// on, in scalar float64 code like the program's.
const (
	probeEvery   = 20 * time.Millisecond
	probeLen     = 320 // points of the series one pass self-joins
	probeWindow  = 32
	probeMinPass = 5 // fewest passes a scale rests on
)

// probeNominal is about the mean thread CPU seconds of a pass on a 2-vCPU
// host (Intel Xeon, Go 1.24) while the benchmark runs, so that on such a
// host a scaled figure is close to the raw one.
const probeNominal = 0.00065

// probeSeries is the kernel's fixed input: deterministic pseudo-random
// noise.
var probeSeries = func() []float64 {
	x := make([]float64, probeLen)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range x {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x[i] = float64(s>>11)/float64(1<<53) - 0.5
	}
	return x
}()

// selfJoin is one pass of the kernel: the smallest z-normalized squared
// distance between two windows of length m of x that do not overlap,
// found with the STOMP recurrence over the rows of the distance matrix.
// buf holds at least 3·(len(x)−m+1) values; the pass allocates nothing,
// so it never assists the program's garbage collector on its clock.
func selfJoin(x []float64, m int, buf []float64) float64 {
	l := len(x) - m + 1
	mu, sig, qt := buf[:l], buf[l:2*l], buf[2*l:3*l]
	for i := range mu {
		var sum, sq float64
		for _, v := range x[i : i+m] {
			sum += v
			sq += v * v
		}
		mu[i] = sum / float64(m)
		sig[i] = math.Sqrt(math.Max(sq/float64(m)-mu[i]*mu[i], 1e-12))
	}
	dot := func(a, b []float64) float64 {
		d := 0.0
		for k, v := range a {
			d += v * b[k]
		}
		return d
	}
	for j := range qt {
		qt[j] = dot(x[:m], x[j:j+m])
	}
	best := math.Inf(1)
	for i := 0; i < l; i++ {
		if i > 0 {
			for j := l - 1; j > 0; j-- {
				qt[j] = qt[j-1] + x[i+m-1]*x[j+m-1] - x[i-1]*x[j-1]
			}
			qt[0] = dot(x[i:i+m], x[:m])
		}
		for j := i + m; j < l; j++ {
			r := (qt[j] - float64(m)*mu[i]*mu[j]) / (float64(m) * sig[i] * sig[j])
			best = math.Min(best, 2*float64(m)*(1-r))
		}
	}
	return best
}

// probe samples the host's per-core speed in the background.  A pass
// takes about 0.65 ms, so the probe costs about 3% of one CPU.
type probe struct {
	clk  obs.Stopwatch
	quit chan struct{}
	done chan struct{}

	mu     sync.Mutex
	at     []time.Duration // when each pass ended, on the probe's clock
	cpu    []float64       // each pass's thread CPU seconds
	failed int             // passes with a wrong result or no CPU clock
}

// startProbe starts the sampler; stop ends it.
func startProbe() *probe {
	p := &probe{clk: obs.NewStopwatch(), quit: make(chan struct{}), done: make(chan struct{})}
	buf := make([]float64, 3*probeLen)
	want := selfJoin(probeSeries, probeWindow, buf)
	go func() {
		defer close(p.done)
		// The pass is timed in this thread's CPU time, so the goroutine
		// must not move to another thread during it.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			c0, ok0 := threadCPU()
			got := selfJoin(probeSeries, probeWindow, buf)
			c1, ok1 := threadCPU()
			p.mu.Lock()
			if ok0 && ok1 && math.Float64bits(got) == math.Float64bits(want) {
				p.at = append(p.at, p.clk.Elapsed())
				p.cpu = append(p.cpu, c1-c0)
			} else {
				p.failed++
			}
			p.mu.Unlock()
		}
	}()
	return p
}

// stop ends the sampler and waits for its goroutine.
func (p *probe) stop() {
	close(p.quit)
	<-p.done
}

// now is the probe's clock; a timed call notes it at its start and end.
func (p *probe) now() time.Duration { return p.clk.Elapsed() }

// scale is the factor that turns seconds measured in [from, to] into
// seconds at the nominal host speed: probeNominal over the mean pass time
// in the span.  A span with fewer than probeMinPass passes is widened
// evenly until it has them.
func (p *probe) scale(from, to time.Duration) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		sum, n := 0.0, 0
		for i, at := range p.at {
			if at >= from && at <= to {
				sum += p.cpu[i]
				n++
			}
		}
		if n >= probeMinPass || n == len(p.at) {
			if n == 0 {
				return 1
			}
			return probeNominal * float64(n) / sum
		}
		from, to = from-probeEvery, to+probeEvery
	}
}

// timed is a raw figure and the span it was measured in.
type timed struct {
	raw      float64
	from, to time.Duration
}

// scaled returns the figures at the nominal host speed: times multiplied
// by their span's scale, rates (rate true) divided by it.
func (p *probe) scaled(figs []timed, rate bool) []float64 {
	out := make([]float64, len(figs))
	for i, f := range figs {
		s := p.scale(f.from, f.to)
		if rate {
			s = 1 / s
		}
		out[i] = f.raw * s
	}
	return out
}

// raws returns the raw figures.
func raws(figs []timed) []float64 {
	out := make([]float64, len(figs))
	for i, f := range figs {
		out[i] = f.raw
	}
	return out
}

// hostSpeed is probeNominal over the median pass time of the run so far,
// with the number of passes kept and of passes that failed.
func (p *probe) hostSpeed() (speed float64, passes, failed int) {
	p.mu.Lock()
	cpu := append([]float64(nil), p.cpu...)
	failed = p.failed
	p.mu.Unlock()
	if len(cpu) == 0 {
		return 1, 0, failed
	}
	sort.Float64s(cpu)
	return probeNominal / cpu[len(cpu)/2], len(cpu), failed
}

// threadCPU is the calling thread's CPU time in seconds, and whether the
// clock could be read.
func threadCPU() (float64, bool) {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9, errno == 0
}
