package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestWorkloadsSmall runs every workload end to end at a small size, with
// and without tracing, and requires its checks to pass and every metric to
// be reported.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, _, err := measure(w, env{seed: 3, root: "..", small: true}, 0.01, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted <= 0 {
				t.Fatalf("%s (traced %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s (traced %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Fatalf("%s (traced %v): metric %s = %+v", w.name, traced, m.name, v)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric names and units in
// step with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the command", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s printed", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}

// TestRunRejectsBadArguments checks the command's argument errors.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-qos", "--trace", "2"},
		{"--workload", "sim-qos", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
