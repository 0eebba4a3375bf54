package mc

import (
	"reflect"
	"testing"

	"latticesim/internal/decoder"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
)

func TestShardPlan(t *testing.T) {
	cases := []struct {
		shots  int
		shards int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {64, 1}, {shardShots, 1},
		{shardShots + 1, 2}, {3 * shardShots, 3}, {10000, 3},
	}
	for _, c := range cases {
		plan := shardPlan(c.shots)
		if len(plan) != c.shards {
			t.Fatalf("shardPlan(%d): %d shards, want %d", c.shots, len(plan), c.shards)
		}
		total := 0
		for i, sh := range plan {
			if sh.index != i {
				t.Fatalf("shardPlan(%d): shard %d has index %d", c.shots, i, sh.index)
			}
			if i < len(plan)-1 && sh.shots != shardShots {
				t.Fatalf("shardPlan(%d): non-final shard %d has %d shots", c.shots, i, sh.shots)
			}
			if sh.shots <= 0 || sh.shots > shardShots {
				t.Fatalf("shardPlan(%d): shard %d size %d out of range", c.shots, i, sh.shots)
			}
			total += sh.shots
		}
		if c.shots > 0 && total != c.shots {
			t.Fatalf("shardPlan(%d): shards cover %d shots", c.shots, total)
		}
	}
	if shardShots%64 != 0 {
		t.Fatalf("shardShots %d must be 64-aligned so batch boundaries are worker-count independent", shardShots)
	}
}

func TestShardSeedsDecorrelated(t *testing.T) {
	seen := map[uint64]int{}
	for _, seed := range []uint64{0, 1, 0xC0FFEE} {
		for i := 0; i < 1000; i++ {
			s := shardSeed(seed, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("shard seed collision: %d and %d -> %#x", prev, i, s)
			}
			seen[s] = i
		}
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(4, 100); got != 4 {
		t.Fatalf("explicit workers: %d", got)
	}
	if got := resolveWorkers(16, 3); got != 3 {
		t.Fatalf("workers must not exceed shards: %d", got)
	}
	if got := resolveWorkers(0, 8); got < 1 {
		t.Fatalf("default workers: %d", got)
	}
}

func buildTestPipeline(t *testing.T, d int) *Pipeline {
	t.Helper()
	res, err := surface.MergeSpec{D: d, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestRunWorkerCountInvariance is the tentpole determinism guarantee:
// the same budget and seed must produce bit-identical results for any
// worker count. 10000 shots spans three shards with a partial final
// batch, so the test crosses every alignment edge case.
func TestRunWorkerCountInvariance(t *testing.T) {
	const shots, seed = 10000, 42
	pl := buildTestPipeline(t, 3)

	pl.Workers = 1
	seq := pl.Run(shots, seed)
	seqProfile := pl.RunProfile(shots, seed, surface.ObsJoint)
	seqRounds := pl.RoundWeights(shots, seed)

	for _, workers := range []int{2, 8} {
		pl.Workers = workers
		par := pl.Run(shots, seed)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("Run: workers=1 %+v != workers=%d %+v", seq, workers, par)
		}
		if parProfile := pl.RunProfile(shots, seed, surface.ObsJoint); !reflect.DeepEqual(seqProfile, parProfile) {
			t.Fatalf("RunProfile differs between workers=1 and workers=%d", workers)
		}
		if parRounds := pl.RoundWeights(shots, seed); !reflect.DeepEqual(seqRounds, parRounds) {
			t.Fatalf("RoundWeights differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestRunWithDecoderMatchesParallel: the sequential single-instance form
// and the parallel factory form follow the same shard schedule, so a
// deterministic decoder must give identical tallies.
func TestRunWithDecoderMatchesParallel(t *testing.T) {
	const shots, seed = 9000, 7
	pl := buildTestPipeline(t, 3)
	seq := pl.RunWithDecoder(decoder.NewUnionFind(pl.Graph), shots, seed)
	pl.Workers = 8
	par := pl.RunWithDecoders(func() decoder.Decoder { return decoder.NewUnionFind(pl.Graph) }, shots, seed)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("RunWithDecoder %+v != RunWithDecoders %+v", seq, par)
	}
	if !reflect.DeepEqual(seq, pl.Run(shots, seed)) {
		t.Fatal("Run must match the explicit union-find forms")
	}
}

// TestRunFromMergesToRun: disjoint shard-aligned ranges covering [0, n)
// must merge to exactly the single-call Run(n) tally, for any worker
// count — the primitive the adaptive allocator's incremental grants
// stand on.
func TestRunFromMergesToRun(t *testing.T) {
	const shots, seed = 20000, 17
	pl := buildTestPipeline(t, 3)
	pl.Workers = 1
	want := pl.Run(shots, seed)

	splits := [][]int{
		{0, shots},
		{0, ShardShots, shots},
		{0, ShardShots, 3 * ShardShots, shots},
		{0, 2 * ShardShots, 4 * ShardShots, shots},
	}
	for _, workers := range []int{1, 3, 8} {
		pl.Workers = workers
		for _, cuts := range splits {
			var got LERResult
			for i := 0; i+1 < len(cuts); i++ {
				got.Merge(pl.RunFrom(cuts[i], cuts[i+1], seed))
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d cuts=%v: merged %+v != Run %+v", workers, cuts, got, want)
			}
		}
	}
}

func TestRunFromRejectsUnalignedStart(t *testing.T) {
	pl := buildTestPipeline(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("RunFrom must panic on an unaligned range start")
		}
	}()
	pl.RunFrom(100, 5000, 1)
}

// TestParallelRaceSmoke drives every parallel entry point with more
// workers than CPUs on a small distance-3 config; its real assertions
// come from the race detector (CI runs go test -race ./...).
func TestParallelRaceSmoke(t *testing.T) {
	pl := buildTestPipeline(t, 3)
	pl.Workers = 4
	if r := pl.Run(3*shardShots, 1); r.Shots != 3*shardShots {
		t.Fatalf("shots %d", r.Shots)
	}
	if bins := pl.RunProfile(2*shardShots, 1, surface.ObsJoint); len(bins) == 0 {
		t.Fatal("empty profile")
	}
	if rounds := pl.RoundWeights(2*shardShots, 1); len(rounds) == 0 {
		t.Fatal("empty round weights")
	}
}

// TestRunShardsOrderIndependence checks the executor contract directly:
// results land at their shard index no matter which worker ran them.
func TestRunShardsOrderIndependence(t *testing.T) {
	shards := shardPlan(16 * shardShots)
	for _, workers := range []int{1, 3, 16} {
		got := runShards(nil, shards, workers,
			func() int { return 0 },
			func(_ int, sh shard) int { return sh.index })
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: result %d landed at %d", workers, v, i)
			}
		}
	}
}
