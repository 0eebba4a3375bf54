package sweep_test

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/sweep"
	"latticesim/internal/trace"
)

// TestEvictionDoesNotPerturbTrace simulates the bundled factory8 trace
// at d=3 with two workers, so seams fetch pipelines concurrently, under
// Ideal (whose merges share specs), Passive and Hybrid: once through an
// unbounded cache and once through a cache whose budget is below one
// pipeline. The ResultSet bytes must match, and the bounded cache must
// have evicted and rebuilt.
func TestEvictionDoesNotPerturbTrace(t *testing.T) {
	data, err := os.ReadFile("../../traces/factory8.trace")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := trace.ParseString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	policies := []core.Policy{core.Ideal, core.Passive, core.Hybrid}
	cfg := trace.Config{HW: hardware.IBM().Scaled(1000), D: 3, P: 1e-3, Shots: 512, Seed: 11, Workers: 2}.WithDefaults()
	simulate := func(cache *sweep.BuildCache) []byte {
		t.Helper()
		c := cfg
		c.Cache = cache
		results, err := trace.SimulateAll(prog, policies, c)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(trace.NewResultSet(prog, cfg, "", results))
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	unbounded := sweep.NewCacheWithBudget(math.MaxInt64)
	want := simulate(unbounded)
	tiny := sweep.NewCacheWithBudget(1)
	if got := simulate(tiny); string(got) != string(want) {
		t.Fatal("eviction changed the factory8 ResultSet")
	}
	_, distinct := unbounded.Stats()
	_, misses := tiny.Stats()
	if _, evictions := tiny.Usage(); evictions == 0 || misses <= distinct {
		t.Fatalf("tiny budget: %d evictions, %d builds for %d distinct specs; want evictions and rebuilds", evictions, misses, distinct)
	}
}
