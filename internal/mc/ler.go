// Package mc is the Monte Carlo execution layer shared by every consumer
// of the simulator: it bundles a stabilizer circuit with its detector
// error model and decoder graph (Pipeline), and runs shot budgets through
// a parallel sharded executor whose results are bit-identical for any
// worker count (see DESIGN.md §5).
//
// The layer sits between the circuit substrate (circuit, frame, dem,
// decoder) and its two consumers: the per-figure experiment runners in
// internal/exp and the campaign engine in internal/sweep. Budgets are
// split into 4096-shot shards with per-shard RNG streams keyed on
// (seed, shard index); shard tallies are folded in shard order, so
// Pipeline.Run output is a pure function of (circuit, shots, seed).
//
// The inner loop runs on the compiled hot path (DESIGN.md §9, §13):
// workers sample through a shared frame.Plan, extract syndromes sparsely
// with a per-worker frame.Extractor, skip decoding entirely for clean
// batches and shots, and decode the rest through the predecoder in front
// of union-find. All of it is bit-identical to the interpreted path.
package mc

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"latticesim/internal/circuit"
	"latticesim/internal/decoder"
	"latticesim/internal/dem"
	"latticesim/internal/frame"
	"latticesim/internal/obs"
	"latticesim/internal/stats"
)

// LERResult reports per-observable logical error statistics.
type LERResult struct {
	Shots int
	// Errors[o] counts shots where the decoder's prediction for
	// observable o disagreed with the sampled flip.
	Errors []int
	// DetectorFires counts total detector fires (syndrome Hamming weight
	// accumulated over all shots), for Fig. 7-style statistics.
	DetectorFires int
}

// Rate returns the logical error rate of observable o.
func (r LERResult) Rate(o int) float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Errors[o]) / float64(r.Shots)
}

// Binomial returns the error count of observable o as a Binomial for
// confidence intervals.
func (r LERResult) Binomial(o int) stats.Binomial {
	return stats.Binomial{Successes: r.Errors[o], Trials: r.Shots}
}

// MeanHammingWeight returns the average syndrome weight per shot.
func (r LERResult) MeanHammingWeight() float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.DetectorFires) / float64(r.Shots)
}

// Merge folds another tally into r, growing r.Errors as needed. All
// fields are integer counts, so merging the results of disjoint shot
// ranges (RunFrom) in any order reproduces the single-run tally
// exactly; the adaptive sweep engine accumulates increments through it.
func (r *LERResult) Merge(s LERResult) {
	if len(s.Errors) > len(r.Errors) {
		grown := make([]int, len(s.Errors))
		copy(grown, r.Errors)
		r.Errors = grown
	}
	r.merge(s)
}

// merge folds another shard tally into r. Addition of counts is
// commutative, so the fold order cannot change the result.
func (r *LERResult) merge(s LERResult) {
	r.Shots += s.Shots
	r.DetectorFires += s.DetectorFires
	for o, e := range s.Errors {
		r.Errors[o] += e
	}
}

// Pipeline bundles the sampler, error model and decoder for one circuit.
type Pipeline struct {
	Circuit *circuit.Circuit
	Model   *dem.Model
	Graph   *decoder.Graph

	// Plan is the compiled sampler execution plan for Circuit. NewPipeline
	// fills it; the Run* entry points compile one per run when it is nil
	// (hand-built pipelines), so callers that loop should populate it —
	// or go through NewPipeline — to compile exactly once. The plan is
	// immutable and shared by every worker.
	Plan *frame.Plan

	// Workers is the Monte Carlo worker-pool size used by Run,
	// RunWithDecoders, RoundWeights and RunProfile. Zero (the default)
	// selects runtime.GOMAXPROCS(0). Results are bit-identical for every
	// value: shots are sharded with per-shard RNG streams keyed on
	// (seed, shard index), and shard tallies merge commutatively (see
	// parallel.go and DESIGN.md §5).
	Workers int

	// Progress, when non-nil, is invoked by the decode entry points (Run,
	// RunWithDecoder, RunWithDecoders) after each completed shard with the
	// cumulative number of finished shots and the run's total budget. It
	// observes only — results are bit-identical with or without it — but
	// it may be called concurrently from worker goroutines (cumulative
	// counts are monotone, not ordered) and on the hot path, so it must be
	// cheap and race-free. The service layer uses it to stream shot-level
	// progress events (DESIGN.md §11).
	Progress func(doneShots, totalShots int)

	// Ctx, when non-nil, cancels execution at shard boundaries: once it
	// is done, no new shard starts, and the Run* entry points return
	// promptly with a partial tally that the caller must discard (check
	// Ctx.Err() after the call). Shards already in flight run to
	// completion, so a run that finishes without observing cancellation
	// is bit-identical to an uncancellable one — cancellation can lose a
	// result, never change it. The simulation service threads job
	// contexts through here so canceled and timed-out jobs release their
	// workers promptly (DESIGN.md §14).
	Ctx context.Context

	// Path selects the execution path. The zero value (PathAuto) is the
	// fast one; PathInterpreted is the reference oracle it must match
	// bit for bit (the differential harness in
	// internal/testutil/diffharness enforces this).
	Path Path

	// Metrics, when non-nil, receives shard-granular instrumentation from
	// the decode entry points: a shard wall-time histogram
	// (latticesim_shard_duration_seconds) and, when the decoder stack
	// exposes predecoder statistics (decoder.Statser), cumulative
	// predecoder shot/hit counters. All observations happen at shard
	// boundaries — never per shot — so nil costs one pointer check per
	// run and results are bit-identical either way.
	Metrics *obs.Registry

	// pre holds the shared predecoder tables for PathAuto's decode stage.
	// NewPipeline fills it; hand-built pipelines leave it nil and run
	// PathAuto without the predecoder stage.
	pre *decoder.Predecoder
}

// Path names a Monte Carlo execution path. Both paths produce
// bit-identical results for the same (circuit, shots, seed); they differ
// only in speed.
type Path int

const (
	// PathAuto (the default) runs the hot path: the compiled sampler,
	// sparse extraction, and the predecoder stage in front of union-find
	// (for the entry points that decode with union-find).
	PathAuto Path = iota
	// PathInterpreted forces the uncompiled circuit.Ops sampler and bare
	// union-find: the reference oracle for both the compiled sampler and
	// the predecoder.
	PathInterpreted
)

// NewPipeline builds the full decode pipeline for a circuit, including
// the compiled sampler plan shared by all workers.
func NewPipeline(c *circuit.Circuit) (*Pipeline, error) {
	m := dem.FromCircuit(c)
	g := decoder.BuildGraph(m)
	if err := g.CheckMatchable(); err != nil {
		return nil, fmt.Errorf("mc: decoder graph: %w", err)
	}
	return &Pipeline{
		Circuit: c,
		Model:   m,
		Graph:   g,
		Plan:    frame.Compile(c),
		pre:     decoder.NewPredecoder(g),
	}, nil
}

// resolvePlan returns the compiled plan for the circuit, compiling one on
// the spot for hand-built pipelines that left Plan nil. The plan is
// immutable and shared read-only by every worker.
func (p *Pipeline) resolvePlan() *frame.Plan {
	if p.Plan != nil {
		return p.Plan
	}
	return frame.Compile(p.Circuit)
}

// samplerFactory returns a constructor for per-worker samplers: the
// interpreting sampler on PathInterpreted, the compiled one otherwise.
func (p *Pipeline) samplerFactory() func() *frame.Sampler {
	if p.Path == PathInterpreted {
		return func() *frame.Sampler { return frame.NewSampler(p.Circuit) }
	}
	plan := p.resolvePlan()
	return func() *frame.Sampler { return plan.NewSampler() }
}

// lerState is the per-worker state of a decode run: a private sampler,
// extractor and decoder, since none of them is safe for concurrent use.
type lerState struct {
	sampler *frame.Sampler
	ext     *frame.Extractor
	dec     decoder.Decoder
	// cur tracks the last cumulative predecoder tally this worker folded
	// into the pipeline's metric counters, so each shard contributes
	// exactly its delta. A pointer because shard calls receive the state
	// by value; nil when metrics are off.
	cur *preCursor
}

// preCursor is a worker's high-water mark of the cumulative
// decoder.Statser tallies already published to the metric counters.
type preCursor struct{ shots, hits int }

// runLER shards the shot budget and decodes it on the worker pool, with
// one decoder per worker supplied by newDec.
func (p *Pipeline) runLER(shots int, seed uint64, workers int, newDec func() decoder.Decoder) LERResult {
	return p.runLERShards(shardPlan(shots), shots, seed, workers, newDec)
}

// runLERShards decodes an explicit shard slice; progress reports shots
// completed within the slice against the given total.
func (p *Pipeline) runLERShards(plan []shard, total int, seed uint64, workers int, newDec func() decoder.Decoder) LERResult {
	newSampler := p.samplerFactory()
	newState := func() lerState {
		return lerState{sampler: newSampler(), ext: frame.NewExtractor(), dec: newDec()}
	}
	// Resolve metric handles once per run, outside the shard loop; the
	// per-shard cost is then one histogram observation plus (at most)
	// two counter adds.
	var shardDur *obs.Histogram
	var preShots, preHits *obs.Counter
	if p.Metrics != nil {
		shardDur = p.Metrics.Histogram("latticesim_shard_duration_seconds",
			"Wall time of one Monte Carlo shard (sample + decode).", obs.DefBuckets)
		preShots = p.Metrics.Counter("latticesim_predecoder_shots_total",
			"Non-empty syndromes decoded through the predecoder stage.")
		preHits = p.Metrics.Counter("latticesim_predecoder_hits_total",
			"Non-empty syndromes fully resolved by the predecoder stage.")
		inner := newState
		newState = func() lerState {
			st := inner()
			st.cur = &preCursor{}
			return st
		}
	}
	var doneShots atomic.Int64
	progress := p.Progress
	parts := runShards(p.Ctx, plan, workers,
		newState,
		func(st lerState, sh shard) LERResult {
			var begin time.Time
			if shardDur != nil {
				begin = time.Now()
			}
			res := p.runShardLER(st, sh, seed)
			if shardDur != nil {
				shardDur.Observe(time.Since(begin).Seconds())
				if ds, ok := st.dec.(decoder.Statser); ok {
					shots, hits := ds.Stats()
					preShots.Add(int64(shots - st.cur.shots))
					preHits.Add(int64(hits - st.cur.hits))
					st.cur.shots, st.cur.hits = shots, hits
				}
			}
			if progress != nil {
				progress(int(doneShots.Add(int64(sh.shots))), total)
			}
			return res
		})
	out := LERResult{Errors: make([]int, p.Circuit.NumObservables())}
	for _, part := range parts {
		out.merge(part)
	}
	return out
}

// runShardLER samples and decodes one shard with its own RNG stream.
//
// Two fast paths keep the per-shot cost proportional to the syndrome
// weight when the decoder declares empty syndromes trivial (see
// decoder.EmptySyndromeFree): batches in which no detector fired at all
// are tallied with popcounts over the observable words — the decoder
// would predict 0 for every shot, so a shot errs iff its observable bit
// flipped — and within mixed batches, clean shots skip the Decode call.
// Both produce exactly the tallies of the general loop.
func (p *Pipeline) runShardLER(st lerState, sh shard, seed uint64) LERResult {
	rng := stats.NewRand(shardSeed(seed, sh.index))
	res := LERResult{Errors: make([]int, p.Circuit.NumObservables())}
	trivialEmpty := decoder.EmptySyndromeFree(st.dec)
	for done := 0; done < sh.shots; {
		n := sh.shots - done
		if n > 64 {
			n = 64
		}
		b := st.sampler.SampleBatch(rng, n)
		if trivialEmpty && !b.AnyDetectorFired() {
			mask := b.Mask()
			for o, w := range b.Obs {
				res.Errors[o] += bits.OnesCount64(w & mask)
			}
			done += n
			res.Shots += n
			continue
		}
		st.ext.ForEachShot(b, func(_ int, defects []int, obsMask uint64) {
			res.DetectorFires += len(defects)
			var pred uint64
			if len(defects) > 0 || !trivialEmpty {
				pred = st.dec.Decode(defects)
			}
			miss := pred ^ obsMask
			for miss != 0 {
				o := bits.TrailingZeros64(miss)
				res.Errors[o]++
				miss &^= 1 << uint(o)
			}
		})
		done += n
		res.Shots += n
	}
	return res
}

// ufFactory returns the per-worker decoder constructor for the
// union-find entry points (Run, RunFrom): on PathAuto with predecoder
// tables available, each worker's union-find is fronted by the
// predecoder stage; otherwise it is the bare union-find.
func (p *Pipeline) ufFactory() func() decoder.Decoder {
	if p.Path == PathAuto && p.pre != nil {
		pre := p.pre
		g := p.Graph
		return func() decoder.Decoder {
			return pre.NewDecoder(decoder.NewUnionFind(g))
		}
	}
	return func() decoder.Decoder { return decoder.NewUnionFind(p.Graph) }
}

// Run samples and decodes the requested number of shots with a fresh
// union-find decoder per worker.
func (p *Pipeline) Run(shots int, seed uint64) LERResult {
	return p.runLER(shots, seed, p.Workers, p.ufFactory())
}

// RunFrom samples and decodes the shot range [from, to) of a to-sized
// budget, with from a multiple of ShardShots (it panics otherwise, like
// a slice bound violation: the caller owns the increment schedule).
// Because every shard's RNG stream is keyed on (seed, shard index),
// merging the results of disjoint ranges covering [0, n) reproduces
// Run(n, seed) exactly — the primitive behind the adaptive allocator's
// incrementally granted budgets (DESIGN.md §12). Progress, when set,
// observes shots completed within this range against its to-from total.
func (p *Pipeline) RunFrom(from, to int, seed uint64) LERResult {
	return p.runLERShards(shardPlanRange(from, to), to-from, seed, p.Workers, p.ufFactory())
}

// RunWithDecoder samples shots and decodes them with the supplied decoder
// (used for LUT / hierarchical decoder studies). Because a single decoder
// instance cannot be shared between goroutines, this always runs on one
// worker; it still uses the sharded RNG schedule, so its result is
// bit-identical to RunWithDecoders with any worker count (for decoders
// that are deterministic functions of the defect set).
func (p *Pipeline) RunWithDecoder(dec decoder.Decoder, shots int, seed uint64) LERResult {
	return p.runLER(shots, seed, 1, func() decoder.Decoder { return dec })
}

// RunWithDecoders is the parallel form of RunWithDecoder: newDec is
// invoked once per worker, so stateful decoders get a private instance
// each. Shared read-only structure (a built LUT, the decoder graph) may
// be captured by the factory and reused across workers.
func (p *Pipeline) RunWithDecoders(newDec func() decoder.Decoder, shots int, seed uint64) LERResult {
	return p.runLER(shots, seed, p.Workers, newDec)
}

// RoundWeights samples shots and returns the mean syndrome Hamming weight
// per detector round coordinate (Fig. 7(b)).
func (p *Pipeline) RoundWeights(shots int, seed uint64) map[int]float64 {
	dets := p.Circuit.Detectors()
	roundOf := make([]int, len(dets))
	for i, d := range dets {
		roundOf[i] = d.Round()
	}
	newSampler := p.samplerFactory()
	parts := runShards(p.Ctx, shardPlan(shots), p.Workers,
		newSampler,
		func(s *frame.Sampler, sh shard) []int {
			counts, _ := s.CountDetectorFires(stats.NewRand(shardSeed(seed, sh.index)), sh.shots)
			return counts
		})
	counts := make(map[int]int)
	for _, detCounts := range parts {
		for i, c := range detCounts {
			counts[roundOf[i]] += c
		}
	}
	out := make(map[int]float64, len(counts))
	for r, c := range counts {
		out[r] = float64(c) / float64(shots)
	}
	return out
}

// WeightBin aggregates shots by syndrome Hamming weight.
type WeightBin struct {
	Shots  int
	Errors int // decode failures on the selected observable
}

// RunProfile samples and decodes shots, binning logical failures of
// observable obs by total syndrome Hamming weight (Fig. 7(a)).
func (p *Pipeline) RunProfile(shots int, seed uint64, obs int) map[int]*WeightBin {
	obsBit := uint64(1) << uint(obs)
	newSampler := p.samplerFactory()
	parts := runShards(p.Ctx, shardPlan(shots), p.Workers,
		func() lerState {
			return lerState{sampler: newSampler(), ext: frame.NewExtractor(), dec: decoder.NewUnionFind(p.Graph)}
		},
		func(st lerState, sh shard) map[int]*WeightBin {
			bins := make(map[int]*WeightBin)
			trivialEmpty := decoder.EmptySyndromeFree(st.dec)
			rng := stats.NewRand(shardSeed(seed, sh.index))
			for done := 0; done < sh.shots; {
				n := sh.shots - done
				if n > 64 {
					n = 64
				}
				b := st.sampler.SampleBatch(rng, n)
				if trivialEmpty && !b.AnyDetectorFired() {
					// Whole batch has weight-0 syndromes: the decoder
					// predicts 0, so a shot errs iff its observable bit is
					// set.
					bin := bins[0]
					if bin == nil {
						bin = &WeightBin{}
						bins[0] = bin
					}
					bin.Shots += n
					if obs < len(b.Obs) {
						bin.Errors += bits.OnesCount64(b.Obs[obs] & b.Mask())
					}
					done += n
					continue
				}
				st.ext.ForEachShot(b, func(_ int, defects []int, obsMask uint64) {
					bin := bins[len(defects)]
					if bin == nil {
						bin = &WeightBin{}
						bins[len(defects)] = bin
					}
					bin.Shots++
					var pred uint64
					if len(defects) > 0 || !trivialEmpty {
						pred = st.dec.Decode(defects)
					}
					if (pred^obsMask)&obsBit != 0 {
						bin.Errors++
					}
				})
				done += n
			}
			return bins
		})
	out := make(map[int]*WeightBin)
	for _, part := range parts {
		for w, b := range part {
			bin := out[w]
			if bin == nil {
				bin = &WeightBin{}
				out[w] = bin
			}
			bin.Shots += b.Shots
			bin.Errors += b.Errors
		}
	}
	return out
}
