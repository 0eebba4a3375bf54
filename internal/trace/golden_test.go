package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"latticesim/internal/core"
	"latticesim/internal/sweep"
)

// TestSimulateGolden pins the exact bytes of two simulations' ResultSet
// JSON. TestSimulateWorkerIndependence compares worker counts within one
// build, so it cannot see a change that moves every worker count alike —
// a reordered survival product, a reseeded seam, a shifted charge. If
// this test fails, the change altered results: fix the code, do not
// re-pin the digests.
func TestSimulateGolden(t *testing.T) {
	data, err := os.ReadFile("../../traces/factory8.trace")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := ParseString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		prog     *Program
		policies []core.Policy
		want     string
	}{
		{"factory8", factory, allPolicies, "05f8c56d97225f1ca30bfb8775c5d986957c076b461efd0c95d89ad6bc5e2f96"},
		{"ensemble", Ensemble(8, 6, 1000, nil, 3), []core.Policy{core.Passive, core.Hybrid}, "e5923cabe8b5525376fcf66af545d726203c7004997004bcdfd1da54754f6f9b"},
	}
	for _, tc := range cases {
		cfg := testConfig()
		cfg.D = 3
		cfg.Workers = 2
		cfg.Cache = sweep.NewBuildCache()
		cfg = cfg.WithDefaults()
		results, err := SimulateAll(tc.prog, tc.policies, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		js, err := json.Marshal(NewResultSet(tc.prog, cfg, "", results))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(js)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: ResultSet digest drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
