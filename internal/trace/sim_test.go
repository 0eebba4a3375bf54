package trace

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/sweep"
)

// allPolicies is the paper's five policies plus the Ideal baseline.
var allPolicies = []core.Policy{
	core.Ideal, core.Passive, core.Active, core.ActiveIntra, core.ExtraRounds, core.Hybrid,
}

func testConfig() Config {
	return Config{HW: hardware.IBM().Scaled(1000), Shots: 512, Seed: 11}
}

func TestSimulateAllPoliciesOnFactoryTrace(t *testing.T) {
	prog := Factory(7, 1, 1000) // 8 patches, 7 merges
	cfg := testConfig()
	cfg.Cache = sweep.NewBuildCache()
	results, err := SimulateAll(prog, allPolicies, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[core.Policy]*Result{}
	for _, r := range results {
		byPolicy[r.Policy] = r
		if r.Patches != 8 || r.MergeOps != 7 {
			t.Fatalf("%s: %d patches, %d merges", r.Policy, r.Patches, r.MergeOps)
		}
		if r.ProgramLER <= 0 || r.ProgramLER >= 1 {
			t.Fatalf("%s: program LER %v out of (0,1)", r.Policy, r.ProgramLER)
		}
		if r.RuntimeNs <= 0 {
			t.Fatalf("%s: runtime %v", r.Policy, r.RuntimeNs)
		}
		if len(r.PerMerge) != 7 || len(r.PerPatch) != 8 {
			t.Fatalf("%s: breakdown sizes %d/%d", r.Policy, len(r.PerMerge), len(r.PerPatch))
		}
	}
	if ideal := byPolicy[core.Ideal]; ideal.SyncIdleNs != 0 || ideal.ExtraRounds != 0 {
		t.Fatalf("Ideal charged idle %v / rounds %d", ideal.SyncIdleNs, ideal.ExtraRounds)
	}
	if passive := byPolicy[core.Passive]; passive.SyncIdleNs <= 0 {
		t.Fatal("Passive injected no idle on a staggered heterogeneous trace")
	}
	// Passive and Active inject the same total slack, differently shaped.
	if byPolicy[core.Passive].SyncIdleNs != byPolicy[core.Active].SyncIdleNs {
		t.Fatalf("Passive idle %v != Active idle %v",
			byPolicy[core.Passive].SyncIdleNs, byPolicy[core.Active].SyncIdleNs)
	}
	// Hybrid runs extra rounds on unequal cycles (ε=400 default).
	if byPolicy[core.Hybrid].ExtraRounds == 0 && byPolicy[core.Hybrid].FallbackPairs == 0 {
		t.Fatal("Hybrid neither ran extra rounds nor fell back")
	}
}

// TestSimulateWorkerIndependence is the event-order determinism contract:
// the entire Result — timings, charges, and every Monte Carlo LER — and
// the build cache's hit/miss counts must be identical for any worker
// budget. At 512 shots every seam is one shard, so the factory program
// exercises the seam pool; the one-seam program's budget of three full
// shards plus a partial one runs on that seam's own shard pool.
func TestSimulateWorkerIndependence(t *testing.T) {
	oneSeam, err := ParseString("PATCH A 1000\nPATCH B 1105\nMERGE A B\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		prog  *Program
		shots int
	}{
		{"factory", Factory(7, 1, 1000), 512},
		{"one seam", oneSeam, 3*mc.ShardShots + 100},
	} {
		var baseline []*Result
		var baseHits, baseMisses int
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := testConfig()
			cfg.Shots = tc.shots
			cfg.Workers = workers
			cfg.Cache = sweep.NewBuildCache()
			results, err := SimulateAll(tc.prog, allPolicies, cfg)
			if err != nil {
				t.Fatal(err)
			}
			hits, misses := cfg.Cache.Stats()
			if baseline == nil {
				baseline, baseHits, baseMisses = results, hits, misses
				continue
			}
			for i, r := range results {
				if !reflect.DeepEqual(baseline[i], r) {
					t.Fatalf("%s %s: result differs between workers=1 and workers=%d:\n%+v\n%+v",
						tc.name, r.Policy, workers, baseline[i], r)
				}
			}
			if hits != baseHits || misses != baseMisses {
				t.Fatalf("%s: cache %d hits / %d misses at workers=%d, %d / %d at workers=1",
					tc.name, hits, misses, workers, baseHits, baseMisses)
			}
		}
	}
}

// TestSimulateProgressInOrder: with seams running concurrently, Progress
// still comes from Simulate's goroutine (calls append to an unguarded
// slice, so -race sees any other caller), once per merge, in order.
func TestSimulateProgressInOrder(t *testing.T) {
	prog := Factory(7, 1, 1000)
	cfg := testConfig()
	cfg.Workers = 4
	var calls [][2]int
	cfg.Progress = func(done, total int) { calls = append(calls, [2]int{done, total}) }
	if _, err := Simulate(prog, core.Passive, cfg); err != nil {
		t.Fatal(err)
	}
	total := prog.Merges()
	if len(calls) != total {
		t.Fatalf("Progress called %d times, want %d: %v", len(calls), total, calls)
	}
	for i, c := range calls {
		if c != [2]int{i + 1, total} {
			t.Fatalf("call %d was Progress(%d, %d), want (%d, %d)", i, c[0], c[1], i+1, total)
		}
	}
}

// TestSimulateCancelMidProgram: a context canceled while seams are in
// flight makes Simulate return the context's error and no Result, and
// only after every goroutine it started has exited.
func TestSimulateCancelMidProgram(t *testing.T) {
	prog := Factory(7, 1, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig()
	cfg.Workers = 4
	cfg.Ctx = ctx
	cfg.Progress = func(done, _ int) {
		if done == 2 {
			cancel()
		}
	}
	before := runtime.NumGoroutine()
	r, err := Simulate(prog, core.Passive, cfg)
	if !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("Simulate after cancel = %v, %v; want nil, context.Canceled", r, err)
	}
	// A goroutine that has returned from its function can still be
	// counted for an instant while it exits; allow it that instant.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived Simulate", runtime.NumGoroutine()-before)
		}
		runtime.Gosched()
	}
}

// TestSimulateSeamErrorIsDeterministic: a seam whose build fails
// surfaces as the first failing seam in event order, the same for any
// worker budget.
func TestSimulateSeamErrorIsDeterministic(t *testing.T) {
	prog := Factory(7, 1, 1000)
	var first error
	for _, workers := range []int{1, 8} {
		cfg := testConfig()
		cfg.D = 4 // no surface code: every seam's build fails
		cfg.Workers = workers
		_, err := Simulate(prog, core.Passive, cfg)
		if err == nil || !strings.HasPrefix(err.Error(), "trace: op 1 pair ") {
			t.Fatalf("workers=%d: error %v, want the first merge's (op 1) seam error", workers, err)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("workers=%d: error %q, workers=1: %q", workers, err, first)
		}
	}
}

func TestSimulateSharedCacheDoesNotPerturbResults(t *testing.T) {
	prog := Ensemble(8, 6, 1000, nil, 3)
	cfg := testConfig()
	solo, err := Simulate(prog, core.Active, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := testConfig()
	shared.Cache = sweep.NewBuildCache()
	if _, err := Simulate(prog, core.Passive, shared); err != nil {
		t.Fatal(err)
	}
	warm, err := Simulate(prog, core.Active, shared)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo, warm) {
		t.Fatal("a warm shared cache changed a policy's result")
	}
	// Ideal on a homogeneous-cycle ensemble collapses every merge onto
	// one spec, so the cache must dedupe across its merges.
	homog := Ensemble(8, 6, 1000, []float64{1}, 3)
	homogCfg := testConfig()
	homogCfg.Cache = sweep.NewBuildCache()
	if _, err := Simulate(homog, core.Ideal, homogCfg); err != nil {
		t.Fatal(err)
	}
	if hits, misses := homogCfg.Cache.Stats(); hits != 5 || misses != 1 {
		t.Fatalf("Ideal homogeneous ensemble: cache %d hits / %d misses, want 5/1", hits, misses)
	}
}

func TestSimulateChargesIdleRoundsIntoNextMerge(t *testing.T) {
	src := `PATCH A 1000
PATCH B 1105
IDLE A 4
MERGE A B
`
	prog, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	r, err := Simulate(prog, core.Passive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.IdleRounds != 4 || r.PerPatch[0].IdleRounds != 4 {
		t.Fatalf("idle rounds not charged: %+v", r)
	}
	if r.IdleOps != 1 || r.MergeOps != 1 {
		t.Fatalf("op accounting wrong: %+v", r)
	}
	// The idle exposure must lengthen the program relative to the same
	// trace without the IDLE op.
	noIdle, err := Simulate(&Program{Patches: prog.Patches, Ops: prog.Ops[1:]}, core.Passive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.RuntimeNs <= noIdle.RuntimeNs {
		t.Fatalf("IDLE did not advance the clock: %v vs %v", r.RuntimeNs, noIdle.RuntimeNs)
	}
}

func TestSimulateRejectsOversizedCycles(t *testing.T) {
	prog := Factory(2, 1, 1000)
	cfg := testConfig()
	cfg.HW = hardware.QuEra() // ~2ms cycle exceeds the 12-bit counter
	if _, err := Simulate(prog, core.Passive, cfg); err == nil {
		t.Fatal("QuEra-scale cycles must be rejected with a -scale hint")
	}
}
