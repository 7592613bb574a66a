package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"ips/internal/obs"
	"ips/internal/serve"
	"ips/internal/ts"
)

// modelName is the name the served model is registered under.
const modelName = "bench"

// fixture is everything a run sets up before it measures: the generated
// data, the pre-encoded request bodies, and a serve.Server listening on a
// loopback port with an HTTP client sized to the load generator.
type fixture struct {
	train, test *ts.Dataset

	// classifyBodies[k] is the JSON body for test rows
	// [k·rowsPerRequest, (k+1)·rowsPerRequest); classify request n sends
	// body order[n mod len(order)], a permutation drawn from the seed.
	classifyBodies [][]byte
	order          []int
	// series[s] is stream session s's series; chunks[s][c] is the JSON
	// body of its c-th append.
	series [][]float64
	chunks [][][]byte

	srv     *serve.Server
	hs      *http.Server
	served  chan error
	baseURL string
	client  *http.Client
	senders int
}

// setUp generates the workload's data and starts the server on a loopback
// port: the program's part of set-up, which setup_s times.  It returns the
// seconds each of the two steps took.  o, when non-nil, is the server's
// observer (traced runs read the serving counters from it).
func setUp(ctx context.Context, wl workload, o *obs.Observer) (*fixture, [2]float64, error) {
	var parts [2]float64
	sw := obs.NewStopwatch()
	train, test, err := generate(wl)
	if err != nil {
		return nil, parts, err
	}
	parts[0] = sw.Elapsed().Seconds()
	f := &fixture{train: train, test: test}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, parts, err
	}
	f.srv = serve.NewServer(ctx, serve.Config{Obs: o})
	f.hs = &http.Server{Handler: f.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.served = make(chan error, 1)
	go func() { f.served <- f.hs.Serve(ln) }()
	f.baseURL = "http://" + ln.Addr().String()

	// One process drives the load with at most one connection per CPU.
	f.senders = runtime.NumCPU()
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     f.senders,
		MaxIdleConnsPerHost: f.senders,
		DisableCompression:  true,
	}}
	if err := f.healthy(ctx); err != nil {
		f.tearDown(ctx)
		return nil, parts, err
	}
	parts[1] = sw.Elapsed().Seconds() - parts[0]
	return f, parts, nil
}

// encode builds every request body up front, so the load generator spends
// its time sending, not marshalling.  It is the benchmark's own work, so
// setup_s leaves it out.
func (f *fixture) encode(seed int64) error {
	n := f.test.Len()
	if n%rowsPerRequest != 0 {
		return fmt.Errorf("%d test rows do not split into requests of %d", n, rowsPerRequest)
	}
	f.classifyBodies = make([][]byte, n/rowsPerRequest)
	for k := range f.classifyBodies {
		rows := make([][]float64, rowsPerRequest)
		for r := range rows {
			rows[r] = f.test.Instances[k*rowsPerRequest+r].Values
		}
		b, err := json.Marshal(map[string][][]float64{"instances": rows})
		if err != nil {
			return err
		}
		f.classifyBodies[k] = b
	}
	rng := rand.New(rand.NewSource(seed))
	f.order = rng.Perm(len(f.classifyBodies))

	sessionRows := (sessionPoints + f.test.SeriesLen() - 1) / f.test.SeriesLen()
	for s := 0; s < streamSessions; s++ {
		var series []float64
		for _, r := range rng.Perm(n)[:sessionRows] {
			series = append(series, f.test.Instances[r].Values...)
		}
		var chunks [][]byte
		for lo := 0; lo < len(series); lo += streamChunk {
			b, err := json.Marshal(map[string][]float64{"points": series[lo:min(lo+streamChunk, len(series))]})
			if err != nil {
				return err
			}
			chunks = append(chunks, b)
		}
		f.series = append(f.series, series)
		f.chunks = append(f.chunks, chunks)
	}
	return nil
}

// healthy waits for the listener to answer /healthz.
func (f *fixture) healthy(ctx context.Context) error {
	deadline := obs.NewDeadline(5 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.baseURL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := f.client.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if deadline.Exceeded() {
			return fmt.Errorf("server did not become healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tearDown stops the listener and the server and waits for both.
func (f *fixture) tearDown(ctx context.Context) error {
	f.client.CloseIdleConnections()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, f.srv.Close(ctx))
}

// setUpTimed sets the fixture up reps times, keeps the last one, and
// encodes its request bodies from the seed.  It returns the seconds each
// set-up took, for the setup_s median, and notes how they split between
// data generation and server start, and how long encoding took.
func setUpTimed(ctx context.Context, wl workload, seed int64, reps int, o *obs.Observer, led *ledger) (*fixture, []float64, error) {
	var times, gen, start []float64
	var f *fixture
	for i := 0; i < reps; i++ {
		if f != nil {
			if err := f.tearDown(ctx); err != nil {
				return nil, nil, err
			}
			runtime.GC() // each set-up starts from the same heap
		}
		var parts [2]float64
		var err error
		if f, parts, err = setUp(ctx, wl, o); err != nil {
			return nil, nil, err
		}
		times = append(times, parts[0]+parts[1])
		gen = append(gen, parts[0])
		start = append(start, parts[1])
	}
	sw := obs.NewStopwatch()
	if err := f.encode(seed); err != nil {
		return nil, nil, errors.Join(err, f.tearDown(ctx))
	}
	led.note("setup_generate_s", gen)
	led.note("setup_server_s", start)
	led.note("encode_s", sw.Elapsed().Seconds())
	return f, times, nil
}

// sameBits reports whether two series are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
