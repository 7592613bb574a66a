package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"

	"ips/internal/obs"
)

// span is one timed region of a traced run.  Trace groups the spans of one
// fit, one predict, or one request; Parent is 0 for a trace's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory on one monotonic clock and writes them
// out when the run ends.  A nil tracer records nothing, so the untraced
// paths pay a pointer check.
type tracer struct {
	clk   obs.Stopwatch
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{clk: obs.NewStopwatch(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(trace, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.clk.Elapsed().Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartNS: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.clk.Elapsed().Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
}

// seconds returns the duration of span id.
func (t *tracer) seconds(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.EndNS-s.StartNS) / 1e9
}

// selfTimes returns, per span name, the total time spent in spans of that
// name minus the time of their direct children, and the span count.
func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]selfTime{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotalS += float64(s.EndNS-s.StartNS) / 1e9
		st.SelfS += float64(s.EndNS-s.StartNS-child[s.ID]) / 1e9
		out[s.Name] = st
	}
	return out
}

// selfTime aggregates the spans of one name.
type selfTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// write stores the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type named struct {
		Name string `json:"name"`
		selfTime
	}
	summary := make([]named, 0, len(names))
	for _, n := range names {
		summary = append(summary, named{n, self[n]})
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Self  []named `json:"self_time"`
		Spans []span  `json:"spans"`
	}{summary, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
