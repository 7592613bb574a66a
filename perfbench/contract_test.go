package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, ledger.json and
// expected.json in step with the metrics and workloads the program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(bench.EndToEnd); !slices.Equal(got, endToEndMetrics()) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program reports %v", got, endToEndMetrics())
	}
	if got := names(bench.PerLayer); !slices.Equal(got, perLayerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer = %v, program reports %v", got, perLayerMetrics())
	}
	got := names(bench.Workloads)
	sort.Strings(got)
	if !slices.Equal(got, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads = %v, program has %v", got, workloadNames())
	}

	var ledger struct {
		Layers []struct {
			Metric string
			Moves  []struct{ Metric, Workload string }
		}
	}
	readJSON(t, "ledger.json", &ledger)
	e2e := append(endToEndMetrics(), unboundedMetrics()...)
	var mapped []string
	for _, l := range ledger.Layers {
		mapped = append(mapped, l.Metric)
		for _, m := range l.Moves {
			if !slices.Contains(e2e, m.Metric) {
				t.Errorf("ledger.json: %s moves unknown end-to-end metric %s", l.Metric, m.Metric)
			}
			if _, ok := workloads[m.Workload]; !ok {
				t.Errorf("ledger.json: %s names unknown workload %s", l.Metric, m.Workload)
			}
		}
	}
	if !slices.Equal(mapped, perLayerMetrics()) {
		t.Errorf("ledger.json maps %v, program reports %v", mapped, perLayerMetrics())
	}

	for _, name := range workloadNames() {
		if _, err := expectedCorrect(workloads[name]); err != nil {
			t.Error(err)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
