package main

import (
	"math"
	"testing"
	"time"

	"ips/internal/obs"
)

// TestSelfJoin checks the probe kernel's STOMP recurrence against the
// distance computed window pair by window pair.
func TestSelfJoin(t *testing.T) {
	x, m := probeSeries[:120], 16
	znorm := func(w []float64) []float64 {
		var mu, sq float64
		for _, v := range w {
			mu += v
			sq += v * v
		}
		mu /= float64(len(w))
		sig := math.Sqrt(sq/float64(len(w)) - mu*mu)
		out := make([]float64, len(w))
		for i, v := range w {
			out[i] = (v - mu) / sig
		}
		return out
	}
	want := math.Inf(1)
	for i := 0; i+m <= len(x); i++ {
		for j := i + m; j+m <= len(x); j++ {
			a, b := znorm(x[i:i+m]), znorm(x[j:j+m])
			d := 0.0
			for k := range a {
				d += (a[k] - b[k]) * (a[k] - b[k])
			}
			want = math.Min(want, d)
		}
	}
	if got := selfJoin(x, m, make([]float64, 3*len(x))); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("selfJoin = %v, pairwise minimum = %v", got, want)
	}
}

// TestProbeScale checks that a figure is scaled by the mean pass time in
// its span, times up and rates down, and that a span with too few passes
// is widened.
func TestProbeScale(t *testing.T) {
	p := &probe{}
	for i := 0; i < 20; i++ {
		p.at = append(p.at, time.Duration(i)*probeEvery)
		c := probeNominal // the first half runs at the nominal speed
		if i >= 10 {
			c = 2 * probeNominal // the second half at half of it
		}
		p.cpu = append(p.cpu, c)
	}
	span := func(from, to int) (time.Duration, time.Duration) {
		return time.Duration(from) * probeEvery, time.Duration(to) * probeEvery
	}
	a0, a1 := span(0, 9)
	b0, b1 := span(10, 19)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	got := p.scaled([]timed{{10, a0, a1}, {10, b0, b1}}, false)
	if !near(got[0], 10) || !near(got[1], 5) {
		t.Errorf("times scaled to %v, want [10 5]", got)
	}
	if got := p.scaled([]timed{{10, b0, b1}}, true); !near(got[0], 20) {
		t.Errorf("rate scaled to %v, want 20", got[0])
	}
	// One pass in the span: widened to five around it, 8..12, of which
	// two are at the nominal speed and three at half of it.
	c0, c1 := span(10, 10)
	want := probeNominal * 5 / (2*probeNominal + 3*2*probeNominal)
	if got := p.scale(c0, c1); !near(got, want) {
		t.Errorf("narrow span scale = %v, want %v", got, want)
	}
}

// TestProbeRuns starts the sampler, reads it from several goroutines while
// it runs, and stops it.
func TestProbeRuns(t *testing.T) {
	pr := startProbe()
	deadline := obs.NewDeadline(10 * time.Second)
	for {
		if _, passes, _ := pr.hostSpeed(); passes >= probeMinPass {
			break
		}
		if deadline.Exceeded() {
			pr.stop()
			t.Fatal("the probe took no passes in 10 s")
		}
		time.Sleep(probeEvery)
	}
	done := make(chan float64)
	for g := 0; g < 4; g++ {
		go func() { done <- pr.scale(0, pr.now()) }()
	}
	for g := 0; g < 4; g++ {
		if s := <-done; !(s > 0) {
			t.Errorf("scale = %v, want > 0", s)
		}
	}
	pr.stop()
	if _, _, failed := pr.hostSpeed(); failed != 0 {
		t.Errorf("%d passes failed", failed)
	}
}
