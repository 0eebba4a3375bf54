package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the emitted metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// toyWorkloads are the benchmark's workloads at toy scale: the same code
// paths and output checks on small inputs.
var toyWorkloads = []workload{
	{"mem-d7", 1, memD7Config{D: 3, ChunkShots: 4096, Chunks: 2, OracleShots: 4096, SetupReps: 2}.run},
	{"trace-factory8", 1, traceConfig{Path: "../traces/factory8.trace", D: 3, Shots: 64, Workers: 2, ParseReps: 2, ParseBatch: 2}.run},
	{"serve", 1, serveConfig{Clients: 2, JobsPerPass: 16, Shots: 64, RepeatEvery: 4, CheckEvery: 2, SetupReps: 2, StoreRoot: serveDefault.StoreRoot}.run},
	{"fleet", 1, fleetConfig{Nodes: 2, Policies: "Passive,Hybrid", Distances: "3", Taus: "500,1000", Shots: 256, SetupReps: 2}.run},
}

// TestToyScale runs every workload untraced and traced at toy scale and
// checks that every output check passes and that exactly the metrics
// BENCHMARK.json declares are emitted, with their units.
func TestToyScale(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.Workloads) != len(toyWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range toyWorkloads {
		if spec.Workloads[i].Name != w.name || workloads[i].name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, workloads[i].name)
		}
		for _, traced := range []bool{false, true} {
			out, err := measure(w, 7, 1, traced, "", io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s (traced %v): correct=%v failed=%d attempted=%d", w.name, traced, out.Correct, out.Failed, out.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics emitted, BENCHMARK.json declares %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s not emitted", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced %v): metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{{5, 100}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if pct, _ := tail(xs); pct != tc.wantPct {
			t.Errorf("tail of %d samples at p%g, want p%g", tc.n, pct, tc.wantPct)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12},
	}}
	self := tr.selfTimes()
	if self["job"] != 3 || self["a"] != 3 || self["b"] != 3 || self["c"] != 4 {
		t.Errorf("self times %v, want job 3, a 3, b 3, c 4", self)
	}
}
