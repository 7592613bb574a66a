package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"ips/internal/core"
	"ips/internal/obs"
	"ips/internal/ts"
)

// eventKind tells a sender what an event asks for.
type eventKind uint8

const (
	evClassify eventKind = iota // POST /v1/classify with the next request body
	evStream                    // the next chunk of one stream session
)

// event is one scheduled request.  due is its send time relative to the
// step's start; every latency is measured from due, so a request that had
// to wait for a free connection or a late generator pays for the wait.
type event struct {
	kind eventKind
	due  time.Duration
	n    int // classify: request number within the run; stream: session slot
}

// outcome is what happened to one event.  Each is written by exactly one
// sender and read after the step has drained.
type outcome struct {
	late     time.Duration // dispatch time − due
	latency  time.Duration // completion time − due
	ok       bool
	isAppend bool // a stream append (not a session create)
	queued   int  // classify requests waiting for a sender at dispatch
}

// task hands one event to a sender.
type task struct {
	ev  event
	out *outcome
	st  *stepRun
}

// stepRun is the shared clock and join of one schedule step.
type stepRun struct {
	clk obs.Stopwatch
	wg  sync.WaitGroup
}

// slotState is one stream-session slot: the session currently open in it
// and how far its series (fixture.series[slot]) has been sent.  Only the
// slot's sender touches it.
type slotState struct {
	id       string
	next     int // next chunk to send
	sessions int // sessions completed in this slot
}

// sessionResult is the last prediction a completed session returned.
type sessionResult struct {
	series int
	pred   int
	has    bool
}

// loadGen drives the served model with an open-loop, fixed-schedule load:
// a dispatcher releases each event at its due time onto a channel, and
// f.senders goroutines, one connection each, send them.
type loadGen struct {
	f    *fixture
	led  *ledger
	tr   *tracer // nil when untraced
	want []int   // offline predictions for every test row

	classifyCh chan *task
	streamChs  []chan *task // one per sender
	senders    sync.WaitGroup

	slots    []slotState
	mu       sync.Mutex
	finished []sessionResult
	reqs     int // classify requests scheduled so far
}

// stepResult summarises one schedule step.
type stepResult struct {
	rate     float64
	classify []float64 // latency from due, ms
	appends  []float64 // latency from due, ms
	late     []float64 // generator lateness, ms
	sent     int       // classify requests and stream chunks sent
	failed   int       // of them: errors and refusals
	p99      tailRead
	// backlogMS is the median latency of the classify requests due in the
	// step's last tenth: a backlog that grew through the step makes them
	// wait, even when too few of them are slow to move the p99.
	backlogMS float64
	// score is the larger of the p99 and backlogMS; a rung passes when it
	// is within limitMS and nothing failed.
	score  float64
	passed bool
}

func newLoadGen(f *fixture, want []int, led *ledger, tr *tracer) *loadGen {
	// The event channels hold more than any step schedules, so the
	// dispatcher never blocks on a busy sender: the schedule stays open-loop
	// and the wait shows up in the latencies, which run from the due time.
	g := &loadGen{f: f, led: led, tr: tr, want: want,
		classifyCh: make(chan *task, 1<<16), slots: make([]slotState, streamSessions)}
	for i := 0; i < f.senders; i++ {
		g.streamChs = append(g.streamChs, make(chan *task, 1<<12))
	}
	return g
}

// start launches one sender per connection.  Every sender takes classify
// requests from the shared queue; stream slot s belongs to sender s mod
// senders, so a session's chunks go out in order on one connection.
func (g *loadGen) start(ctx context.Context) {
	for i := range g.streamChs {
		g.spawn(ctx, g.classifyCh, g.streamChs[i])
	}
}

func (g *loadGen) spawn(ctx context.Context, cls, str chan *task) {
	g.senders.Add(1)
	go func() {
		defer g.senders.Done()
		g.sendLoop(ctx, cls, str)
	}()
}

// stop closes the event channels and waits for every sender to exit.
func (g *loadGen) stop() {
	close(g.classifyCh)
	for _, ch := range g.streamChs {
		close(ch)
	}
	g.senders.Wait()
}

func (g *loadGen) sendLoop(ctx context.Context, cls, str chan *task) {
	for cls != nil || str != nil {
		select {
		case t, ok := <-cls:
			if !ok {
				cls = nil
				continue
			}
			g.classify(ctx, t)
			t.st.wg.Done()
		case t, ok := <-str:
			if !ok {
				str = nil
				continue
			}
			g.stream(ctx, t)
			t.st.wg.Done()
		}
	}
}

// runStep sends count classify requests at rate per second, plus the
// stream chunks due in the same span of time, and waits for all of them.
// An infinite rate makes every request due at once.
func (g *loadGen) runStep(rate float64, count int) stepResult {
	span := time.Duration(float64(count) / rate * float64(time.Second))
	var evs []event
	for i := 0; i < count; i++ {
		evs = append(evs, event{kind: evClassify, due: time.Duration(float64(i) / rate * float64(time.Second)), n: g.reqs + i})
	}
	g.reqs += count
	// Stream slots are staggered evenly within one append period.
	for s := range g.slots {
		off := appendEvery * time.Duration(s) / time.Duration(len(g.slots))
		for due := off; due < span; due += appendEvery {
			evs = append(evs, event{kind: evStream, due: due, n: s})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })

	outs := make([]outcome, len(evs))
	// Every step starts from a freshly collected heap, so how many
	// collections fall inside it depends on the step's own allocations,
	// not on what ran before it.
	runtime.GC()
	st := &stepRun{clk: obs.NewStopwatch()}
	st.wg.Add(len(evs))
	for i, ev := range evs {
		if wait := ev.due - st.clk.Elapsed(); wait > 0 {
			time.Sleep(wait)
		}
		outs[i].late = st.clk.Elapsed() - ev.due
		t := &task{ev: ev, out: &outs[i], st: st}
		if ev.kind == evClassify {
			g.classifyCh <- t
		} else {
			g.streamChs[ev.n%len(g.streamChs)] <- t
		}
	}
	st.wg.Wait()

	res := stepResult{rate: rate, sent: len(evs)}
	for i, ev := range evs {
		o := outs[i]
		res.late = append(res.late, ms(o.late))
		if !o.ok {
			res.failed++
			continue
		}
		switch {
		case ev.kind == evClassify:
			res.classify = append(res.classify, ms(o.latency))
		case o.isAppend:
			res.appends = append(res.appends, ms(o.latency))
		}
	}
	// A failed request is a miss: it counts as an infinitely slow one.
	var lat, last []float64
	for i, ev := range evs {
		if ev.kind != evClassify {
			continue
		}
		l := ms(outs[i].latency)
		if !outs[i].ok {
			l = math.Inf(1)
		}
		lat = append(lat, l)
		if ev.due >= span*9/10 {
			last = append(last, l)
		}
	}
	res.p99, _ = percentile(lat, 99)
	res.backlogMS = median(last)
	res.score = math.Max(res.p99.Value, res.backlogMS)
	res.passed = res.failed == 0 && res.score <= limitMS
	return res
}

// classifyResponse is the part of the /v1/classify response checked here.
type classifyResponse struct {
	Predictions []int `json:"predictions"`
}

// classify sends one classify request and checks its predictions against
// the offline Model.Predict output for the same rows.
func (g *loadGen) classify(ctx context.Context, t *task) {
	k := g.f.order[t.ev.n%len(g.f.order)]
	span := g.tr.begin("req-"+strconv.Itoa(t.ev.n), "http.classify", 0)
	status, body, err := g.post(ctx, g.f.baseURL+"/v1/classify?model="+modelName, g.f.classifyBodies[k])
	t.out.latency = t.st.clk.Elapsed() - t.ev.due
	g.tr.end(span)
	t.out.ok = err == nil && status == http.StatusOK
	g.led.op(t.out.ok)
	if !t.out.ok {
		return
	}
	var resp classifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		g.led.check(false, "classify %d: undecodable response: %v", t.ev.n, err)
		return
	}
	lo := k * rowsPerRequest
	g.led.check(equalInts(resp.Predictions, g.want[lo:lo+rowsPerRequest]),
		"classify rows %d..%d: served %v, offline Predict gave %v", lo, lo+rowsPerRequest-1, resp.Predictions, g.want[lo:lo+rowsPerRequest])
}

// streamResponse is the part of the /v1/stream response used here.
type streamResponse struct {
	Session    string `json:"session"`
	N          int    `json:"n"`
	Prediction *int   `json:"prediction"`
}

// stream sends the next chunk of the slot's session: the first chunk
// creates the session, the last one is followed by closing it.
func (g *loadGen) stream(ctx context.Context, t *task) {
	sl := &g.slots[t.ev.n]
	chunks := g.f.chunks[t.ev.n]
	url := g.f.baseURL + "/v1/stream?session=" + sl.id
	name := "http.append"
	if sl.id == "" {
		url = g.f.baseURL + "/v1/stream?model=" + modelName
		name = "http.stream_create"
	}
	span := g.tr.begin("stream-"+strconv.Itoa(t.ev.n)+"-"+strconv.Itoa(sl.sessions), name, 0)
	status, body, err := g.post(ctx, url, chunks[sl.next])
	t.out.latency = t.st.clk.Elapsed() - t.ev.due
	g.tr.end(span)
	t.out.ok = err == nil && status == http.StatusOK
	t.out.isAppend = sl.id != ""
	g.led.op(t.out.ok)
	if !t.out.ok {
		g.led.check(false, "stream slot %d chunk %d: status %d, %v", t.ev.n, sl.next, status, err)
		return
	}
	var resp streamResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		g.led.check(false, "stream slot %d: undecodable response: %v", t.ev.n, err)
		return
	}
	sl.id = resp.Session
	sl.next++
	if sl.next < len(chunks) {
		return
	}
	res := sessionResult{series: t.ev.n}
	if resp.Prediction != nil {
		res.pred, res.has = *resp.Prediction, true
	}
	g.mu.Lock()
	g.finished = append(g.finished, res)
	g.mu.Unlock()
	g.closeSession(ctx, sl.id)
	sl.id, sl.next = "", 0
	sl.sessions++
}

// closeSession deletes a stream session.
func (g *loadGen) closeSession(ctx context.Context, id string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, g.f.baseURL+"/v1/stream?session="+id, nil)
	if err != nil {
		g.led.op(false)
		return
	}
	resp, err := g.f.client.Do(req)
	ok := err == nil
	if ok {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ok = err == nil && resp.StatusCode == http.StatusOK
	}
	g.led.op(ok)
}

// closeOpen closes the sessions still open when the load ends.
func (g *loadGen) closeOpen(ctx context.Context) {
	for s := range g.slots {
		if g.slots[s].id != "" {
			g.closeSession(ctx, g.slots[s].id)
			g.slots[s].id = ""
		}
	}
}

// post sends one JSON body and returns the status and response body.
func (g *loadGen) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// servingRun is what the serving phase measured.
type servingRun struct {
	nominal   stepResult
	maxRPS    float64 // the rate ladder's estimate
	satCPURaw float64 // process CPU milliseconds per request, every connection busy
	satCPU    float64 // the same at the nominal host speed
	late      []float64
}

// The rate ladder starts at ladderStart times the classify throughput the
// saturation step measured and grows ladderGrowth per rung; each rung sends
// rungSeconds of requests, and at least minRungRequests of them so that its
// p99 read rests on enough samples.  probeRequests, per connection, warm
// the served model up and size the saturation step, which runs in satParts
// equal parts.
const (
	ladderStart     = 0.6
	ladderGrowth    = 1.2
	rungSeconds     = 1.0
	minRungRequests = 40
	probeRequests   = 8
	satParts        = 5
)

// limitMS is the rate ladder's fixed latency limit, on both workloads.  In
// twenty tuning runs on a 2-vCPU host, rungs below the measured throughput
// mostly had p99s of 3-50 ms, and rungs past the knee 100 ms and more.
const limitMS = 100

// runServing registers the model and drives it through three kinds of
// step.  The saturation step queues classify requests all at once, so
// every connection stays busy; it gives the classify throughput and the
// CPU cost of a request (the process's CPU time over the step, client and
// server together, per completed request).  Its parts run two first, one
// after the nominal step, and the rest last, and it reports the median
// part: the host's speed changes over seconds, and the parts sample it at
// different times.  The nominal step sends the workload's fixed rate with
// the stream sessions appending alongside.  The rate ladder climbs from
// below the measured throughput until a rung misses the latency limit or
// the ladder's share of the run is spent.  Last, every completed stream
// session is checked against offline Model.Predict on its series.
func runServing(ctx context.Context, wl workload, env environment, f *fixture, m *core.Model, want []int, led *ledger, tr *tracer, pr *probe) (*servingRun, error) {
	if _, err := f.srv.Register(ctx, modelName, "perfbench", m); err != nil {
		return nil, err
	}
	g := newLoadGen(f, want, led, tr)
	g.start(ctx)
	out := &servingRun{}

	probe := g.runStep(math.Inf(1), probeRequests*f.senders)
	partCount := max(int(throughput(probe)*share(env, satShare).Seconds()/satParts), 50)
	failed := probe.failed
	var cpus []timed
	var rates []float64
	saturate := func(parts int) {
		for k := 0; k < parts; k++ {
			from, cpu0 := pr.now(), cpuSeconds()
			part := g.runStep(math.Inf(1), partCount)
			cpus = append(cpus, timed{(cpuSeconds() - cpu0) * 1000 / float64(max(len(part.classify), 1)), from, pr.now()})
			rates = append(rates, throughput(part))
			failed += part.failed
		}
	}

	saturate(2)
	out.nominal = g.runStep(wl.NominalRPS, max(int(wl.NominalRPS*share(env, nominalShare).Seconds()), minRungRequests))
	out.late = append(out.late, out.nominal.late...)
	var notes []map[string]any
	note := func(r stepResult) {
		notes = append(notes, map[string]any{"rate": r.rate, "p99_ms": r.p99, "backlog_ms": r.backlogMS,
			"sent": r.sent, "succeeded": r.sent - r.failed, "failed": r.failed, "passed": r.passed})
	}
	note(out.nominal)
	saturate(1)
	var rungs []stepResult
	ladder := obs.NewStopwatch()
	for rate := ladderStart * median(rates); len(rungs) == 0 || rungs[len(rungs)-1].passed; rate *= ladderGrowth {
		count := max(int(rate*rungSeconds), minRungRequests)
		if len(rungs) > 0 && ladder.Elapsed()+time.Duration(float64(count)/rate*float64(time.Second)) > share(env, ladderShare) {
			break
		}
		r := g.runStep(rate, count)
		out.late = append(out.late, r.late...)
		note(r)
		rungs = append(rungs, r)
	}
	saturate(satParts - 3)
	cpusAt := pr.scaled(cpus, false)
	out.satCPU, out.satCPURaw = median(cpusAt), median(raws(cpus))
	led.check(failed == 0, "saturation step: %d requests failed", failed)
	out.maxRPS = maxRate(rungs)

	g.closeOpen(ctx)
	g.stop()
	if err := checkSessions(ctx, m, f, g.finished, led); err != nil {
		return nil, err
	}
	led.note("sessions_checked", len(g.finished))
	led.note("steps", notes)
	led.note("saturation", map[string]any{"requests_per_part": partCount, "cpu_ms": cpusAt, "raw_cpu_ms": raws(cpus), "rps": rates})
	return out, nil
}

// throughput is the classify requests a step with every request due at
// once completed per second: its count over the slowest latency.
func throughput(r stepResult) float64 {
	slowest := 0.0
	for _, l := range r.classify {
		slowest = math.Max(slowest, l)
	}
	return float64(len(r.classify)) / (slowest / 1000)
}

// maxRate is one ladder's estimate of the highest sustainable classify
// rate: the last passing rung, interpolated towards the first failing one
// by where the latency limit falls between their scores on a log scale.  A
// rung that failed on errors gives no room above the passing one; a ladder
// whose first rung already fails scales that rung's rate down by the miss.
func maxRate(steps []stepResult) float64 {
	lastPass := -1
	for i, r := range steps {
		if !r.passed {
			break
		}
		lastPass = i
	}
	if lastPass < 0 {
		r := steps[0]
		if r.failed > 0 {
			return r.rate / ladderGrowth
		}
		return r.rate * limitMS / r.score
	}
	lo := steps[lastPass]
	if lastPass+1 >= len(steps) {
		return lo.rate // the ladder ran out before the server did
	}
	hi := steps[lastPass+1]
	if hi.failed > 0 {
		return lo.rate
	}
	frac := (math.Log(limitMS) - math.Log(lo.score)) / (math.Log(hi.score) - math.Log(lo.score))
	frac = math.Max(0, math.Min(1, frac))
	return lo.rate * math.Pow(hi.rate/lo.rate, frac)
}

// reportServing sets the serving end-to-end metrics.
func reportServing(s *servingRun, led *ledger) error {
	p50, ok50 := percentile(s.nominal.classify, 50)
	p99, ok99 := percentile(s.nominal.classify, 99)
	a50, oka50 := percentile(s.nominal.appends, 50)
	a99, oka99 := percentile(s.nominal.appends, 99)
	if !ok50 || !ok99 || !oka50 || !oka99 {
		return fmt.Errorf("nominal step too small: %d classify and %d append samples", len(s.nominal.classify), len(s.nominal.appends))
	}
	led.set("classify_p50_ms", p50.Value, "ms")
	led.set("classify_p99_ms", p99.Value, "ms")
	led.set("classify_max_rps", s.maxRPS, "1/s")
	led.set("classify_cpu_ms", s.satCPU, "ms")
	led.set("classify_raw_cpu_ms", s.satCPURaw, "ms")
	led.set("append_p50_ms", a50.Value, "ms")
	led.set("append_p99_ms", a99.Value, "ms")
	led.note("classify_p99_read", p99)
	led.note("append_p99_read", a99)
	return nil
}

// checkSessions compares every completed stream session's last prediction
// with offline Model.Predict on the session's whole series.
func checkSessions(ctx context.Context, m *core.Model, f *fixture, done []sessionResult, led *ledger) error {
	if len(done) == 0 {
		led.check(false, "no stream session completed")
		return nil
	}
	d := &ts.Dataset{Name: "sessions"}
	for _, s := range f.series {
		d.Instances = append(d.Instances, ts.Instance{Values: s})
	}
	want, err := m.Predict(ctx, d)
	if err != nil {
		return fmt.Errorf("predict on session series: %w", err)
	}
	for _, s := range done {
		led.check(s.has && s.pred == want[s.series],
			"stream session on series %d ended with prediction %d (present %v), offline Predict gives %d", s.series, s.pred, s.has, want[s.series])
	}
	return nil
}
