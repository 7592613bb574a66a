// Command perfbench is the repository benchmark.  It runs one workload
// through the entry points users call — core.Fit, Model.Predict, and a
// serve.Server behind a loopback HTTP listener — checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer ledger)
// as the last line of standard output:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"fit_s": {"value": 6.1, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload wide --seed 1 --seconds 60 --trace 0
//
// Each workload's data is fixed; the seed draws the request schedule's
// inputs (which test rows each classify request carries, in what order,
// and which rows the stream sessions replay).  The pipeline always runs
// the default options users get: float64, auto kernel, Workers = number of
// CPUs.  The timed end-to-end metrics are given at a nominal host speed,
// which a background probe measures during every timed call (probe.go).
// BENCHMARK.json at the repository root lists the workloads and the
// metrics, and ledger.json which layer should move which end-to-end
// metric.  Every run also writes a record — machine,
// Go version, seed, source fingerprint, checks, all metrics — and, traced,
// its span list, under .bench_build/perfbench/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"ips/internal/obs"
)

func main() {
	os.Exit(run())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger collects what a run measured and what it checked.  It is shared
// by the load generator's senders, so the counters are atomic and the
// failure list is locked.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	wrong   []string          // output checks that failed
	metrics map[string]metric // reported metrics
	notes   map[string]any    // extra figures for the run record
}

func newLedger() *ledger {
	return &ledger{metrics: map[string]metric{}, notes: map[string]any{}}
}

// op counts one attempted operation and whether it failed.
func (l *ledger) op(ok bool) {
	l.attempted.Add(1)
	if !ok {
		l.failed.Add(1)
	}
}

// check records a failed output check when cond is false.
func (l *ledger) check(cond bool, format string, args ...any) {
	if cond {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.wrong) < 50 {
		l.wrong = append(l.wrong, fmt.Sprintf(format, args...))
	}
}

func (l *ledger) set(name string, value float64, unit string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics[name] = metric{Value: value, Unit: unit}
}

func (l *ledger) note(name string, v any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.notes[name] = v
}

// environment pins what a number was measured on, so single-core and
// multi-core figures, or figures of different sources, never mix.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"workers"`
	Commit     string `json:"commit,omitempty"`
	Source     string `json:"source_sha256"`
}

func run() int {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	ctx := context.Background()

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := environment{
		Workload: wl.Name, Seed: *seed, Trace: *trace == 1, Seconds: *seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workers: runtime.NumCPU(),
		Commit: gitCommit(root),
	}
	if env.Source, err = sourceDigest(root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fingerprinting sources:", err)
		return 1
	}

	led := newLedger()
	clk := obs.NewStopwatch()
	var tr *tracer
	pr := startProbe()
	defer pr.stop()
	if env.Trace {
		tr = newTracer()
		err = runTraced(ctx, wl, env, led, tr, pr)
	} else {
		err = runEndToEnd(ctx, wl, env, led, pr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	speed, passes, failed := pr.hostSpeed()
	led.check(failed == 0 && passes > 0, "speed probe: %d passes failed, %d kept", failed, passes+failed)
	if !env.Trace {
		led.set("max_rss_mb", maxRSSMB(), "MB")
		led.set("host_speed", speed, "x")
	}
	led.note("probe_passes", passes)
	led.note("run_s", clk.Elapsed().Seconds())

	want, shown := endToEndMetrics(), append(endToEndMetrics(), unboundedMetrics()...)
	if env.Trace {
		want, shown = perLayerMetrics(), perLayerMetrics()
	}
	for _, name := range shown {
		if _, ok := led.metrics[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", name)
			return 1
		}
	}
	res := result{
		Correct:   len(led.wrong) == 0,
		Attempted: led.attempted.Load(),
		Failed:    led.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, name := range want {
		res.Metrics[name] = led.metrics[name]
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing was attempted")
		return 1
	}
	for _, w := range led.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", w)
	}
	if err := writeRecord(root, env, res, led, tr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing the run record:", err)
		return 1
	}

	fmt.Printf("perfbench %s seed=%d trace=%v numcpu=%d gomaxprocs=%d workers=%d %s source=%.12s\n",
		env.Workload, env.Seed, env.Trace, env.NumCPU, env.GOMAXPROCS, env.Workers, env.GoVersion, env.Source)
	for _, name := range shown {
		m := led.metrics[name]
		fmt.Printf("  %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// writeRecord stores the run record (and the span list of a traced run)
// under .bench_build/perfbench/ in the checkout.
func writeRecord(root string, env environment, res result, led *ledger, tr *tracer) error {
	dir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", env.Workload, env.Seed, boolInt(env.Trace))
	rec := struct {
		Env     environment       `json:"env"`
		Result  result            `json:"result"`
		Checks  []string          `json:"failed_checks"`
		Metrics map[string]metric `json:"all_metrics"`
		Notes   map[string]any    `json:"notes"`
	}{env, res, led.wrong, led.metrics, led.notes}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.write(filepath.Join(dir, base+"-spans.json"))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuSeconds is the user and system CPU time the process has used.  Time
// the host's hypervisor takes the CPU away (steal) is not in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// gitCommit reads the checked-out commit when the tree is a git work tree;
// benchmark checkouts usually are not, and the source digest stands in.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return ""
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
