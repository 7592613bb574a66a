package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/dist"
	"ips/internal/ip"
	"ips/internal/mp"
	"ips/internal/obs"
	"ips/internal/stream"
	"ips/internal/ts"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 15

// runEndToEnd is the untraced run: set up, repeat Fit + Predict, serve the
// fitted model under load, and check every output.
func runEndToEnd(ctx context.Context, wl workload, env environment, led *ledger, pr *probe) (err error) {
	from := pr.now()
	f, setups, err := setUpTimed(ctx, wl, env.Seed, setupReps, nil, led)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.tearDown(ctx)) }()
	// Set-up runs on one goroutine, so the probe's per-core speed over
	// the fifteen set-ups scales it directly.
	led.set("setup_s", median(setups)*pr.scale(from, pr.now()), "s")
	led.set("setup_raw_s", median(setups), "s")
	led.note("setup_s_all", setups)

	budget := share(env, offlineShare)
	off, err := runOffline(ctx, wl, f.train, f.test, budget, led, pr)
	if err != nil {
		return err
	}
	reportOffline(off, f.test, led, pr)

	s, err := runServing(ctx, wl, env, f, off.model, off.pred, led, nil, pr)
	if err != nil {
		return err
	}
	if err := reportServing(s, led); err != nil {
		return err
	}
	late, _ := percentile(s.late, 99)
	led.note("gen_late_ms_p99", late)
	failed := float64(led.failed.Load()) / float64(led.attempted.Load())
	led.set("failed_frac", failed, "frac")
	led.set("ok_frac", 1-failed, "frac")

	// Untimed: the stream layer's features must equal the batch transform.
	_, err = replayStreams(ctx, f, off.model, led)
	return err
}

// share is the given share of the run's --seconds.
func share(env environment, frac float64) time.Duration {
	return time.Duration(frac * float64(env.Seconds) * float64(time.Second))
}

// runTraced is the traced run: it repeats an untraced core.Fit + Predict
// next to the same pipeline decomposed into its layers' public functions
// (called exactly as core.Fit and Model.Predict call them), checks that
// both give the same shapelets and predictions, times each layer in the
// benchmark's own spans, and then measures the kernel, stream and serving
// layers directly.
func runTraced(ctx context.Context, wl workload, env environment, led *ledger, tr *tracer, pr *probe) (err error) {
	o := obs.New("perfbench")
	f, _, err := setUpTimed(ctx, wl, env.Seed, 1, o, led)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.tearDown(ctx)) }()

	budget := share(env, offlineShare)
	clk := obs.NewStopwatch()
	var plain, traced []float64
	var lays []*layers
	var model *core.Model
	var pred []int
	for iter := 0; iter == 0 || fitsAnother(clk, iter, budget); iter++ {
		runtime.GC() // as in runOffline: no earlier garbage on this clock
		sw := obs.NewStopwatch()
		m, err := core.Fit(ctx, f.train, options())
		plain = append(plain, sw.Elapsed().Seconds())
		led.op(err == nil)
		if err != nil {
			return fmt.Errorf("fit: %w", err)
		}
		p, err := m.Predict(ctx, f.test)
		led.op(err == nil)
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		runtime.GC()
		l, err := decompose(ctx, f.train, f.test, tr, iter)
		if err != nil {
			return err
		}
		led.op(true)
		traced = append(traced, l.fitS)
		led.check(sameShapelets(l.shapelets, m.Shapelets), "traced fit %d: shapelets differ from core.Fit", iter)
		led.check(equalInts(l.pred, p), "traced predict %d: predictions differ from Model.Predict", iter)
		if iter == 0 {
			model, pred = m, p
		}
		lays = append(lays, l)
	}
	reportLayers(lays, tr, led)
	led.set("obs.trace_overhead_frac", median(traced)/median(plain)-1, "frac")
	led.note("fit_s_untraced", plain)
	led.note("fit_s_traced", traced)

	if err := measureSelfJoin(ctx, f.train, led); err != nil {
		return err
	}
	measureDistEval(ctx, model, f.test, lays[0].testX, led)
	appendUS, err := replayStreams(ctx, f, model, led)
	if err != nil {
		return err
	}
	led.set("stream.append_us_p50", appendUS, "us")
	if err := measureIncremental(f, model, led); err != nil {
		return err
	}

	s, err := runServing(ctx, wl, env, f, model, pred, led, tr, pr)
	if err != nil {
		return err
	}
	late, _ := percentile(s.late, 99)
	led.set("gen.late_ms_p99", late.Value, "ms")
	reportServeCounters(o.Metrics(), led)
	return nil
}

// layers is one decomposed Fit + Predict.
type layers struct {
	fitS       float64
	spans      map[string]int // layer name → span ID
	shapelets  []classify.Shapelet
	pred       []int
	testX      [][]float64
	jobs       int
	cells      int64
	poolSize   int
	candidates int
	stats      dabf.PruneStats
	dists      int64
}

// decompose runs the pipeline one layer at a time through the same public
// functions, with the same arguments, that core.Fit and Model.Predict use.
func decompose(ctx context.Context, train, test *ts.Dataset, tr *tracer, iter int) (*layers, error) {
	opt := options().WithDefaults()
	ipCfg := opt.IP
	if opt.Workers > 1 && ipCfg.Workers <= 1 {
		ipCfg.Workers = opt.Workers
	}
	l := &layers{spans: map[string]int{}}
	fitTrace := "fit-" + strconv.Itoa(iter)
	fit := tr.begin(fitTrace, "fit", 0)
	layer := func(name string, fn func() error) error {
		id := tr.begin(fitTrace, name, fit)
		err := fn()
		tr.end(id)
		l.spans[name] = id
		return err
	}

	var pool, pruned *ip.Pool
	var filter *dabf.DABF
	var X [][]float64
	var scaler *classify.Scaler
	var svm *classify.SVM
	steps := []struct {
		name string
		fn   func() error
	}{
		{"ip.generate", func() (err error) { pool, err = ip.Generate(ctx, train, ipCfg); return }},
		{"dabf.build", func() (err error) { filter, err = dabf.BuildSpan(ctx, pool, opt.DABF, nil); return }},
		{"dabf.prune", func() (err error) { pruned, l.stats, err = dabf.PruneSpan(ctx, pool, filter, nil); return }},
		{"core.select", func() (err error) {
			l.shapelets, err = core.SelectTopK(ctx, pruned, train, filter, core.SelectionConfig{K: opt.K, UseDT: true, UseCR: true})
			return
		}},
		{"classify.train_transform", func() (err error) {
			X, err = classify.TransformWith(ctx, train, l.shapelets, transformConfig(opt))
			return
		}},
		{"classify.svm_train", func() (err error) {
			if scaler, err = classify.FitScaler(X); err != nil {
				return err
			}
			svm, err = classify.TrainSVMCtx(ctx, scaler.Apply(X), train.Labels(), opt.SVM, nil)
			return
		}},
	}
	for _, st := range steps {
		if err := layer(st.name, st.fn); err != nil {
			tr.end(fit)
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	tr.end(fit)
	l.fitS = tr.seconds(fit)

	predTrace := "predict-" + strconv.Itoa(iter)
	predict := tr.begin(predTrace, "predict", 0)
	id := tr.begin(predTrace, "classify.test_transform", predict)
	Xt, err := classify.TransformWith(ctx, test, l.shapelets, transformConfig(opt))
	tr.end(id)
	l.spans["classify.test_transform"] = id
	if err != nil {
		tr.end(predict)
		return nil, fmt.Errorf("test transform: %w", err)
	}
	id = tr.begin(predTrace, "classify.svm_predict", predict)
	l.pred = svm.PredictAll(scaler.Apply(Xt))
	tr.end(id)
	tr.end(predict)
	l.spans["classify.svm_predict"] = id

	l.testX = Xt
	l.poolSize = pool.Size()
	l.candidates = pruned.Size()
	l.dists = int64(test.Len()) * int64(len(l.shapelets))
	lengths := ipCfg.Lengths(train.SeriesLen())
	for range train.Classes() {
		for s := 0; s < ipCfg.QN; s++ {
			for _, L := range lengths {
				l.jobs++
				l.cells += selfJoinCells(ipCfg.QS*train.SeriesLen(), L)
			}
		}
	}
	return l, nil
}

// transformConfig is the transform configuration core.Fit and
// Model.Predict pass.
func transformConfig(opt core.Options) classify.TransformConfig {
	return classify.TransformConfig{Workers: opt.Workers, Kernel: classify.DefaultKernel, Precision: opt.Precision}
}

// reportLayers sets the per-layer times, as medians over the
// decompositions, and the sizes of the first one (they never differ).
func reportLayers(lays []*layers, tr *tracer, led *ledger) {
	for _, name := range []string{"ip.generate", "dabf.build", "dabf.prune", "core.select",
		"classify.train_transform", "classify.svm_train", "classify.test_transform", "classify.svm_predict"} {
		var times []float64
		for _, l := range lays {
			times = append(times, tr.seconds(l.spans[name]))
		}
		led.set(name+"_s", median(times), "s")
	}
	l := lays[0]
	led.set("mp.cells", float64(l.cells), "count")
	led.set("ip.jobs", float64(l.jobs), "count")
	led.set("ip.pool_size", float64(l.poolSize), "count")
	led.set("dabf.pruned_frac", float64(l.stats.Pruned)/float64(max(l.stats.Examined, 1)), "frac")
	led.set("core.candidates", float64(l.candidates), "count")
	led.set("classify.dists", float64(l.dists), "count")
}

// selfJoinCells is the number of distance-matrix cells mp.SelfJoinCtx
// walks for a series of n points and window w: every diagonal beyond the
// exclusion zone, in full.
func selfJoinCells(n, w int) int64 {
	windows := n - w + 1
	excl := max(w/2, 1)
	d := int64(windows - (excl + 1))
	if d <= 0 {
		return 0
	}
	return d * (d + 1) / 2
}

// measureSelfJoin times mp.SelfJoinCtx on instance-profile-shaped inputs —
// QS training series of one class concatenated, boundary windows masked,
// at every candidate length — on one worker and on one per CPU.
func measureSelfJoin(ctx context.Context, train *ts.Dataset, led *ledger) error {
	cfg := options().WithDefaults().IP
	classes := train.Classes()
	ins := train.ByClass()[classes[0]]
	cat, starts := ts.ConcatenateInstances(ins[:min(cfg.QS, len(ins))])
	lengths := cfg.Lengths(train.SeriesLen())
	var one, all []float64
	var cells int64
	for rep := 0; rep < 3; rep++ {
		for _, workers := range []int{1, runtime.NumCPU()} {
			sw := obs.NewStopwatch()
			for _, L := range lengths {
				valid := ts.BoundaryMask(starts, len(cat), L)
				if _, err := mp.SelfJoinCtx(ctx, cat, L, valid, mp.Options{Workers: workers}); err != nil {
					return fmt.Errorf("self-join: %w", err)
				}
			}
			if workers == 1 {
				one = append(one, sw.Elapsed().Seconds())
			} else {
				all = append(all, sw.Elapsed().Seconds())
			}
		}
	}
	for _, L := range lengths {
		cells += selfJoinCells(len(cat), L)
	}
	led.set("mp.selfjoin_ns_per_cell", median(one)*1e9/float64(cells), "ns")
	led.set("mp.selfjoin_speedup", median(one)/median(all), "x")
	return nil
}

// measureDistEval times the serving kernel path — a scratch-prepared
// series through Batch.EvalScratchCtx on one worker — over the test split,
// and checks each row against the batch transform.
func measureDistEval(ctx context.Context, m *core.Model, test *ts.Dataset, want [][]float64, led *ledger) {
	queries := make([][]float64, len(m.Shapelets))
	for i, s := range m.Shapelets {
		queries[i] = s.Values
	}
	batch := dist.NewBatch(queries)
	var scratch dist.Scratch
	var counts dist.Counts
	row := make([]float64, len(queries))
	var times []float64
	for rep := 0; rep < 3; rep++ {
		sw := obs.NewStopwatch()
		for i, in := range test.Instances {
			p := scratch.Prepare(in.Values)
			if err := batch.EvalScratchCtx(ctx, p, row, &counts, &scratch); err != nil {
				led.check(false, "dist eval: %v", err)
				return
			}
			if rep == 0 {
				led.check(sameBits(row, want[i]), "dist eval row %d differs from the batch transform", i)
			}
		}
		times = append(times, sw.Elapsed().Seconds())
	}
	led.set("dist.eval_us_per_series", median(times)*1e6/float64(test.Len()), "us")
}

// replayStreams feeds every session series through a stream.Stream at the
// served chunk size, checks that its features at the end equal
// classify.TransformWith on the whole series, and returns the median
// microseconds per Append.
func replayStreams(ctx context.Context, f *fixture, m *core.Model, led *ledger) (float64, error) {
	window := shortestShapelet(m)
	var times []float64
	for si, series := range f.series {
		st, err := stream.New(stream.Config{Window: window, Shapelets: m.Shapelets, Scaler: m.Scaler, SVM: m.SVM})
		if err != nil {
			return 0, err
		}
		st.Reserve(len(series))
		for lo := 0; lo < len(series); lo += streamChunk {
			sw := obs.NewStopwatch()
			_, err := st.Append(ctx, series[lo:min(lo+streamChunk, len(series))])
			times = append(times, float64(sw.Elapsed().Nanoseconds())/1e3)
			if err != nil {
				return 0, fmt.Errorf("stream append: %w", err)
			}
		}
		X, err := classify.TransformWith(ctx, &ts.Dataset{Name: "session", Instances: []ts.Instance{{Values: series}}},
			m.Shapelets, classify.TransformConfig{Kernel: classify.DefaultKernel})
		if err != nil {
			return 0, err
		}
		led.check(sameBits(st.Features(), X[0]), "stream series %d: features at close differ from classify.TransformWith", si)
	}
	return median(times), nil
}

// measureIncremental times mp.Incremental.Append once the series has
// reached the served session length.
func measureIncremental(f *fixture, m *core.Model, led *ledger) error {
	series := f.series[0]
	tail := min(256, len(series)/4)
	var times []float64
	for rep := 0; rep < 3; rep++ {
		inc, err := mp.NewIncremental(series[:len(series)-tail], shortestShapelet(m))
		if err != nil {
			return err
		}
		inc.Reserve(len(series))
		sw := obs.NewStopwatch()
		for _, v := range series[len(series)-tail:] {
			if err := inc.Append(v); err != nil {
				return err
			}
		}
		times = append(times, float64(sw.Elapsed().Nanoseconds())/1e3/float64(tail))
	}
	led.set("mp.append_us", median(times), "us")
	return nil
}

// shortestShapelet is the stream window the server picks by default.
func shortestShapelet(m *core.Model) int {
	w := 0
	for _, s := range m.Shapelets {
		if w == 0 || len(s.Values) < w {
			w = len(s.Values)
		}
	}
	return w
}

// reportServeCounters reads the serving layer's own counters.
func reportServeCounters(reg *obs.Registry, led *ledger) {
	ratio := func(a, b string) float64 {
		return float64(reg.Counter(a).Value()) / float64(max(reg.Counter(b).Value(), 1))
	}
	p50 := func(h string) float64 {
		return reg.Histogram(h, nil).Snapshot().Quantiles["p50"]
	}
	led.set("serve.batch_ms_p50", p50("serve.batch.ms"), "ms")
	led.set("serve.batch_instances_mean", ratio("serve.batch.instances", "serve.batch.groups"), "count")
	led.set("serve.coalesced_frac", ratio("serve.batch.coalesced", "serve.batch.jobs"), "frac")
	led.set("serve.http_ms_p50", p50("serve.http.classify.ms"), "ms")
	admitted := reg.Counter("serve.admit.accepted").Value() + reg.Counter("serve.admit.rejected").Value()
	led.set("serve.rejected_frac", float64(reg.Counter("serve.admit.rejected").Value())/float64(max(admitted, 1)), "frac")
	led.set("serve.expired", float64(reg.Counter("serve.queue.expired").Value()), "count")
}
