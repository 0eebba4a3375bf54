package mc

// Parallel sharded Monte Carlo execution (see DESIGN.md §5).
//
// A shot budget is split into 64-shot-aligned shards; each shard owns an
// RNG stream derived deterministically from (base seed, shard index), so
// the set of sampled shots is a pure function of the budget and the seed.
// Shards are executed by a fixed-size worker pool in which every worker
// owns its own frame.Sampler and decoder.Decoder instance (neither is
// safe for concurrent use), and per-shard tallies are folded in shard
// order after the pool drains. Results are therefore bit-identical for
// any worker count, including 1.

import (
	"context"
	"runtime"
	"sync"
)

// shardShots is the shot budget of a full shard: 64 batches of 64 shots.
// It must be a multiple of 64 so that only the final shard of a run can
// contain a partial batch — batch boundaries, and hence RNG consumption
// per shard, never depend on the worker count. 4096 shots keeps tens of
// shards in flight for typical budgets (40k+) so the pool load-balances,
// while each shard still amortizes its share of pool bookkeeping.
const shardShots = 4096

// ShardShots is the granularity of incremental execution: RunFrom
// accepts ranges whose start is a multiple of this, because a shard's
// RNG stream is keyed on its index and consumed from its first shot.
// The adaptive allocator in internal/sweep quantizes every budget
// decision to this unit, and its first checkpoint is one shard, so that
// an incrementally-granted budget replays the exact shard schedule a
// single-call run of the same total would use.
const ShardShots = shardShots

// shardPlanRange splits the shot range [from, to) of a to-sized budget
// into shards. from must be shard-aligned (a multiple of shardShots) so
// the range covers whole shards of the canonical shardPlan(to); only
// the final shard may be partial. The returned shards carry their
// budget-absolute indices, so their RNG streams — and hence the union
// of any disjoint ranges covering [0, n) — are identical to a single
// shardPlan(n) run.
func shardPlanRange(from, to int) []shard {
	if from < 0 || from%shardShots != 0 {
		panic("mc: range start must be a non-negative multiple of ShardShots")
	}
	if to <= from {
		return nil
	}
	return shardPlan(to)[from/shardShots:]
}

// shard is one unit of work: shards[i] covers shots [i*shardShots,
// i*shardShots+shots).
type shard struct {
	index int
	shots int
}

// shardPlan splits a shot budget into full shards plus one remainder.
func shardPlan(shots int) []shard {
	if shots <= 0 {
		return nil
	}
	n := (shots + shardShots - 1) / shardShots
	plan := make([]shard, n)
	for i := range plan {
		s := shardShots
		if rem := shots - i*shardShots; rem < s {
			s = rem
		}
		plan[i] = shard{index: i, shots: s}
	}
	return plan
}

// shardSeed derives the RNG seed of one shard from the base seed with a
// SplitMix64 finalizer, so neighbouring shard indices yield decorrelated
// PCG streams.
func shardSeed(seed uint64, index int) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(index+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// resolveWorkers maps a Workers knob to a concrete pool size: <=0 selects
// runtime.GOMAXPROCS(0) (which respects container CPU quotas where
// NumCPU would oversubscribe), and the pool never exceeds the shard
// count.
func resolveWorkers(workers, shards int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runShards executes every shard with a pool of workers. The workers
// knob is resolved internally (resolveWorkers), so callers pass the raw
// Pipeline.Workers value. newState builds the per-worker state (sampler
// + decoder — anything not concurrency safe); runOne executes one shard
// against that state and returns its tally. Tallies are collected per
// shard index and must be merged by the caller in shard order, which
// makes the whole computation independent of scheduling. With one
// worker the pool is bypassed and shards run inline on the calling
// goroutine.
//
// ctx may be nil (never canceled). Cancellation is observed only at
// shard boundaries: shards already running finish normally, shards not
// yet started are skipped and left as zero values in the result slice.
// A canceled run's tally is therefore partial and must be discarded by
// the caller (check ctx.Err()); a run that completes without observing
// cancellation is bit-identical to an uncancellable one, so the
// determinism contract is untouched.
func runShards[S, R any](ctx context.Context, shards []shard, workers int, newState func() S, runOne func(S, shard) R) []R {
	results := make([]R, len(shards))
	if len(shards) == 0 {
		return results
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	canceled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if workers = resolveWorkers(workers, len(shards)); workers == 1 {
		st := newState()
		for i, sh := range shards {
			if canceled() {
				break
			}
			results[i] = runOne(st, sh)
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newState()
			for i := range idx {
				if canceled() {
					continue // drain without running
				}
				results[i] = runOne(st, shards[i])
			}
		}()
	}
feed:
	for i := range shards {
		select {
		case idx <- i:
		case <-done:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return results
}
