package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/obs"
	"ips/internal/ts"
	"ips/internal/ucr"
)

// expectedJSON records, per workload, how many test series the fitted
// model classifies correctly.  The pipeline is deterministic on any worker
// count, so a run whose count differs has changed the program's output, not
// just its speed.
//
//go:embed expected.json
var expectedJSON []byte

// expectedCorrect returns the recorded correct-prediction count of the
// workload.
func expectedCorrect(wl workload) (int, error) {
	var table map[string]int
	if err := json.Unmarshal(expectedJSON, &table); err != nil {
		return 0, fmt.Errorf("expected.json: %w", err)
	}
	n, ok := table[wl.Name]
	if !ok {
		return 0, fmt.Errorf("expected.json has no entry for workload %s", wl.Name)
	}
	return n, nil
}

// options are the pipeline options every run uses: the defaults a user
// gets, with one worker per CPU.
func options() core.Options {
	return core.Options{Workers: runtime.NumCPU()}
}

// generate makes the workload's train and test splits.
func generate(wl workload) (train, test *ts.Dataset, err error) {
	return ucr.GenerateByName(wl.Dataset, ucr.GenConfig{Seed: dataSeed, MaxTest: wl.MaxTest})
}

// countCorrect counts predictions that match the labels.
func countCorrect(pred []int, d *ts.Dataset) int {
	n := 0
	for i, in := range d.Instances {
		if pred[i] == in.Label {
			n++
		}
	}
	return n
}

// offlineRun is what the Fit + Predict loop measured and produced.
type offlineRun struct {
	model   *core.Model // the first fit; the serving phase hosts it
	pred    []int       // its predictions on the test split
	fits    []timed     // seconds per Fit
	rates   []timed     // test series per second per Predict
	correct int
}

// runOffline repeats Fit + Predict on the workload's data for as many
// whole iterations as fit in budget (at least one), checking that every
// iteration reproduces the first one's shapelets and predictions and that
// the accuracy matches the recorded value.  Each figure keeps its span on
// the probe's clock, for scaling.
func runOffline(ctx context.Context, wl workload, train, test *ts.Dataset, budget time.Duration, led *ledger, pr *probe) (*offlineRun, error) {
	out := &offlineRun{}
	opt := options()
	clk := obs.NewStopwatch()
	for iter := 0; iter == 0 || fitsAnother(clk, iter, budget); iter++ {
		// Each timed call starts from a collected heap, so the garbage of
		// the call before it is not collected on its clock.
		runtime.GC()
		sw, from := obs.NewStopwatch(), pr.now()
		m, err := core.Fit(ctx, train, opt)
		fitDur := sw.Elapsed()
		out.fits = append(out.fits, timed{fitDur.Seconds(), from, pr.now()})
		led.op(err == nil)
		if err != nil {
			return nil, fmt.Errorf("fit: %w", err)
		}
		if iter == 0 {
			out.model = m
		} else {
			led.check(sameShapelets(m.Shapelets, out.model.Shapelets), "fit %d: shapelets differ from fit 0", iter)
		}
		for p := 0; p < predictsPerFit; p++ {
			runtime.GC()
			sw, from = obs.NewStopwatch(), pr.now()
			pred, err := m.Predict(ctx, test)
			predDur := sw.Elapsed()
			out.rates = append(out.rates, timed{float64(test.Len()) / predDur.Seconds(), from, pr.now()})
			led.op(err == nil)
			if err != nil {
				return nil, fmt.Errorf("predict: %w", err)
			}
			if out.pred == nil {
				out.pred = pred
				out.correct = countCorrect(pred, test)
				continue
			}
			led.check(equalInts(pred, out.pred), "fit %d predict %d: predictions differ from the first predict", iter, p)
		}
	}
	want, err := expectedCorrect(wl)
	if err != nil {
		return nil, err
	}
	led.check(out.correct == want, "accuracy: %d of %d test series correct, the recorded value is %d",
		out.correct, test.Len(), want)
	led.note("correct", out.correct)
	led.note("offline_iterations", len(out.fits))
	return out, nil
}

// fitsAnother reports whether one more iteration, as long as the mean of
// the iters done so far, ends within budget.
func fitsAnother(clk obs.Stopwatch, iters int, budget time.Duration) bool {
	elapsed := clk.Elapsed()
	return elapsed+elapsed/time.Duration(iters) <= budget
}

// reportOffline sets the offline end-to-end metrics: the bounded ones at
// the nominal host speed, and the raw ones as measured.
func reportOffline(off *offlineRun, test *ts.Dataset, led *ledger, pr *probe) {
	fits, rates := pr.scaled(off.fits, false), pr.scaled(off.rates, true)
	led.set("fit_s", median(fits), "s")
	led.set("predict_series_per_s", median(rates), "1/s")
	led.set("fit_raw_s", median(raws(off.fits)), "s")
	led.set("predict_raw_series_per_s", median(raws(off.rates)), "1/s")
	led.set("accuracy_pct", 100*float64(off.correct)/float64(test.Len()), "%")
	led.note("fit_s_all", fits)
	led.note("fit_raw_s_all", raws(off.fits))
	led.note("predict_series_per_s_all", rates)
	led.note("predict_raw_series_per_s_all", raws(off.rates))
}

// sameShapelets reports whether two shapelet sets are bitwise identical.
func sameShapelets(a, b []classify.Shapelet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Class != b[i].Class || !sameBits(a[i].Values, b[i].Values) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
