package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		n       int
		p       float64
		ok      bool
		value   float64
		pct     float64
		comment string
	}{
		{1000, 99, true, 990, 99, "enough samples: exact p99, ten beyond it"},
		{1000, 50, true, 500, 50, "median"},
		{200, 99, true, 190, 95, "p99 lowered to p95: ten samples beyond"},
		{100, 50, true, 50, 50, "p50 needs only ten beyond"},
		{11, 99, true, 1, 100.0 / 11, "lowest qualifying rank"},
		{10, 50, false, 0, 0, "ten samples: nothing has ten beyond it"},
		{0, 50, false, 0, 0, "empty"},
	}
	for _, c := range cases {
		xs := seq(c.n)
		got, ok := percentile(xs, c.p)
		if ok != c.ok {
			t.Fatalf("%s: ok = %v, want %v", c.comment, ok, c.ok)
		}
		if got.N != c.n {
			t.Errorf("%s: N = %d, want %d", c.comment, got.N, c.n)
		}
		if !ok {
			continue
		}
		if got.Value != c.value || math.Abs(got.Pct-c.pct) > 1e-9 {
			t.Errorf("%s: got value %v at p%.3f, want %v at p%.3f", c.comment, got.Value, got.Pct, c.value, c.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("%s: only %d samples beyond the reported value", c.comment, beyond)
		}
	}
	xs := seq(50)
	if _, ok := percentile(xs, 90); !ok || xs[0] != 50 {
		t.Fatal("percentile must not reorder its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median must be NaN")
	}
}
