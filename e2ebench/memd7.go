package main

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"time"

	"latticesim/internal/circuit"
	"latticesim/internal/decoder"
	"latticesim/internal/dem"
	"latticesim/internal/frame"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/obs"
	"latticesim/internal/stats"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
)

// memD7Config shapes the mem-d7 workload: a Z-basis memory on IBM at
// p=1e-3, the paper's operating point, decoded on one Monte Carlo
// worker. Only the sample→extract→decode loop runs in a pass.
type memD7Config struct {
	D           int // code distance
	ChunkShots  int // shots per Pipeline.Run call, the workload's operation
	Chunks      int // Run calls per pass
	OracleShots int // leading range checked against mc.PathInterpreted
	SetupReps   int // pipeline builds per run; setup_s is their median
}

var memD7Default = memD7Config{D: 7, ChunkShots: 16384, Chunks: 16, OracleShots: 8192, SetupReps: 31}

func (c memD7Config) spec() surface.MemorySpec {
	return surface.MemorySpec{D: c.D, Basis: surface.BasisZ, HW: hardware.IBM(), P: 1e-3}
}

func (c memD7Config) run(plan runPlan, res *result) error {
	var pl *mc.Pipeline
	for i := 0; i < c.SetupReps; i++ {
		runtime.GC()
		start := time.Now()
		b, err := c.spec().Build()
		if err != nil {
			return err
		}
		if pl, err = mc.NewPipeline(b.Circuit); err != nil {
			return err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	pl.Workers = 1
	seeds := make([]uint64, c.Chunks)
	for i := range seeds {
		seeds[i] = sweep.DeriveSeed(plan.Seed, fmt.Sprintf("e2ebench mem-d7 chunk=%d", i))
	}

	var first []mc.LERResult
	for p := 0; p < plan.Passes; p++ {
		tallies, wall, _, lat := c.pass(pl, seeds, res, nil, "")
		res.wall = append(res.wall, wall)
		res.latency = append(res.latency, lat)
		res.shots = append(res.shots, float64(c.Chunks*c.ChunkShots))
		res.ops = append(res.ops, float64(c.Chunks))
		res.retained = append(res.retained, retainedMB())
		if first == nil {
			first = tallies
		}
		res.check(reflect.DeepEqual(tallies, first), "mem-d7: pass %d tallies differ from pass 0", p)
	}

	// The default path must equal the interpreted reference oracle.
	ref := *pl
	ref.Path = mc.PathInterpreted
	got, want := pl.RunFrom(0, c.OracleShots, seeds[0]), ref.RunFrom(0, c.OracleShots, seeds[0])
	res.check(reflect.DeepEqual(got, want), "mem-d7: default path %+v != interpreted %+v on shots [0,%d)", got, want, c.OracleShots)

	if plan.TracedPasses > 0 {
		if err := c.traced(plan, pl, seeds, first, res); err != nil {
			return err
		}
	}
	runtime.KeepAlive(pl)
	return nil
}

// pass runs one timed pass of Chunks Run calls and returns their
// tallies, the pass wall time, the allocation count over the Run calls
// (traced only) and each call's duration.
func (c memD7Config) pass(pl *mc.Pipeline, seeds []uint64, res *result, tr *tracer, trace string) ([]mc.LERResult, float64, uint64, []float64) {
	tallies := make([]mc.LERResult, c.Chunks)
	lat := make([]float64, 0, c.Chunks)
	var allocs uint64
	start := time.Now()
	root := tr.begin(trace, 0, "pass")
	for i, seed := range seeds {
		var m0 uint64
		if tr != nil {
			m0 = mallocs()
		}
		id := tr.begin(trace, root, "mc.Pipeline.Run")
		t0 := time.Now()
		tallies[i] = pl.Run(c.ChunkShots, seed)
		d := time.Since(t0).Seconds()
		tr.end(id)
		if tr != nil {
			allocs += mallocs() - m0
		}
		lat = append(lat, d)
		res.attempted++
		if tallies[i].Shots != c.ChunkShots {
			res.opFailed(fmt.Errorf("mem-d7: Run tallied %d of %d shots", tallies[i].Shots, c.ChunkShots))
		}
	}
	tr.end(root)
	return tallies, time.Since(start).Seconds(), allocs, lat
}

// traced runs the traced set-ups and passes, then replays one pass
// layer by layer, and fills mem-d7's per-layer metrics.
func (c memD7Config) traced(plan runPlan, pl *mc.Pipeline, seeds []uint64, want []mc.LERResult, res *result) error {
	tr := plan.Tracer
	var costs []chainCost
	for i := 0; i < c.SetupReps; i++ {
		cost, err := buildChain(tr, fmt.Sprintf("setup-%d", i), "surface.MemorySpec.Build", func() (*circuit.Circuit, error) {
			b, err := c.spec().Build()
			if err != nil {
				return nil, err
			}
			return b.Circuit, nil
		})
		if err != nil {
			return err
		}
		costs = append(costs, cost)
	}
	setChainLayers(res, costs, median)

	reg := obs.NewRegistry()
	tp := *pl
	tp.Metrics = reg
	var allocs uint64
	for p := 0; p < plan.TracedPasses; p++ {
		_, wall, a, _ := c.pass(&tp, seeds, res, tr, fmt.Sprintf("pass-%d", p))
		res.tracedWall = append(res.tracedWall, wall)
		allocs += a
	}
	shots := float64(plan.TracedPasses * c.Chunks * c.ChunkShots)
	res.layers["mc.allocs_per_kshot"] = float64(allocs) / shots * 1000
	hits := reg.Counter("latticesim_predecoder_hits_total", "").Value()
	decoded := reg.Counter("latticesim_predecoder_shots_total", "").Value()
	res.layers["decoder.predecode_hit_ratio"] = float64(hits) / float64(max(decoded, 1))

	// Each replayed chunk is paired with an untraced Run of the same
	// chunk just before it, so the two see the same machine state and
	// their difference, the mc layer's own cost, is not lost in drift.
	pre := decoder.NewPredecoder(pl.Graph)
	root := tr.begin("replay", 0, "replay")
	runS := 0.0
	for i, seed := range seeds {
		t0 := time.Now()
		pl.Run(c.ChunkShots, seed)
		runS += time.Since(t0).Seconds()
		got := replayChunk(pl, pre, c.ChunkShots, seed, tr, "replay", root)
		res.check(reflect.DeepEqual(got, want[i]), "mem-d7: replay of chunk %d tallies %+v, Run tallied %+v", i, got, want[i])
	}
	tr.end(root)
	perShot := func(name string) float64 {
		return sum(tr.durations(name)) / float64(c.Chunks*c.ChunkShots) * 1e9
	}
	sample := perShot("frame.WideSampler.SampleGroup")
	extract := perShot("frame.Extractor.Extract")
	decode := perShot("decoder.Decoder.Decode")
	res.layers["frame.sample_ns_per_shot"] = sample
	res.layers["frame.extract_ns_per_shot"] = extract
	res.layers["decoder.decode_ns_per_shot"] = decode
	untraced := runS / float64(c.Chunks*c.ChunkShots) * 1e9
	res.layers["mc.overhead_ns_per_shot"] = untraced - sample - extract - decode
	return nil
}

// chainCost is the cost of one pipeline build, step by step.
type chainCost struct {
	build, extract, extractAllocs, graph, pretable, compile float64
}

// buildChain builds a circuit and then makes the calls mc.NewPipeline
// makes, one by one, timing each as a span under one root span.
// specName names the circuit-building call.
func buildChain(tr *tracer, trace, specName string, build func() (*circuit.Circuit, error)) (chainCost, error) {
	var c chainCost
	root := tr.begin(trace, 0, "pipeline.build")
	defer tr.end(root)
	timed := func(name string, f func()) float64 {
		id := tr.begin(trace, root, name)
		t0 := time.Now()
		f()
		d := time.Since(t0).Seconds()
		tr.end(id)
		return d
	}
	var circ *circuit.Circuit
	var err error
	if c.build = timed(specName, func() { circ, err = build() }); err != nil {
		return c, err
	}
	var m *dem.Model
	m0 := mallocs()
	c.extract = timed("dem.FromCircuit", func() { m = dem.FromCircuit(circ) })
	c.extractAllocs = float64(mallocs() - m0)
	var g *decoder.Graph
	c.graph = timed("decoder.BuildGraph", func() { g = decoder.BuildGraph(m) })
	if c.graph += timed("decoder.Graph.CheckMatchable", func() { err = g.CheckMatchable() }); err != nil {
		return c, err
	}
	c.compile = timed("frame.Compile", func() { frame.Compile(circ) })
	c.pretable = timed("decoder.NewPredecoder", func() { decoder.NewPredecoder(g) })
	return c, nil
}

// setChainLayers reports the build layers from a set of chain costs,
// folded by agg (median over repeated builds of one spec, sum over a
// grid's distinct specs).
func setChainLayers(res *result, costs []chainCost, agg func([]float64) float64) {
	field := func(f func(chainCost) float64) float64 {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = f(c)
		}
		return agg(xs)
	}
	res.layers["surface.build_s"] = field(func(c chainCost) float64 { return c.build })
	res.layers["dem.extract_s"] = field(func(c chainCost) float64 { return c.extract })
	res.layers["dem.extract_allocs"] = field(func(c chainCost) float64 { return c.extractAllocs })
	res.layers["decoder.graph_s"] = field(func(c chainCost) float64 { return c.graph })
	res.layers["decoder.pretable_s"] = field(func(c chainCost) float64 { return c.pretable })
	res.layers["frame.compile_s"] = field(func(c chainCost) float64 { return c.compile })
}

// replayChunk re-executes pl.Run(shots, seed) the way the default path
// (mc.PathAuto) runs it on one worker: the same 4096-shot shards and
// per-shard RNG streams, groups of frame.WideWords 64-shot batches
// through a frame.WideSampler, sparse extraction of every batch in which
// a detector fired, and predecoder-fronted union-find decoding. Decoding
// goes through decoder.Decoder.Decode, the entry point every mc.Path
// shares (the default path's DecodeBatch is a loop over it). Each
// sampler, extractor and decoder call is a span, so layer time is
// measured on the default path's own call sequence; the returned tally
// must equal Run's, which the benchmark checks.
func replayChunk(pl *mc.Pipeline, pre *decoder.Predecoder, shots int, seed uint64, tr *tracer, trace string, parent int) mc.LERResult {
	ws := pl.Plan.NewWideSampler()
	ext := frame.NewExtractor()
	dec := pre.NewDecoder(decoder.NewUnionFind(pl.Graph))
	var sp frame.SparseBatch
	preds := make([]uint64, 64)
	res := mc.LERResult{Errors: make([]int, pl.Circuit.NumObservables())}
	var counts [frame.WideWords]int
	for shard := 0; shard*mc.ShardShots < shots; shard++ {
		n := min(mc.ShardShots, shots-shard*mc.ShardShots)
		rng := stats.NewRand(shardSeed(seed, shard))
		for done := 0; done < n; {
			ng := 0
			for ; ng < frame.WideWords && done < n; ng++ {
				counts[ng] = min(64, n-done)
				done += counts[ng]
			}
			id := tr.begin(trace, parent, "frame.WideSampler.SampleGroup")
			batches := ws.SampleGroup(rng, counts[:ng])
			tr.end(id)
			for _, b := range batches {
				res.Shots += b.Shots
				if !b.AnyDetectorFired() {
					mask := b.Mask()
					for o, w := range b.Obs {
						res.Errors[o] += bits.OnesCount64(w & mask)
					}
					continue
				}
				id = tr.begin(trace, parent, "frame.Extractor.Extract")
				ext.Extract(b, &sp)
				tr.end(id)
				id = tr.begin(trace, parent, "decoder.Decoder.Decode")
				for i := 0; i < b.Shots; i++ {
					preds[i] = dec.Decode(sp.Shot(i))
				}
				tr.end(id)
				for i := 0; i < b.Shots; i++ {
					res.DetectorFires += int(sp.Off[i+1] - sp.Off[i])
					for miss := preds[i] ^ sp.ObsMask[i]; miss != 0; miss &= miss - 1 {
						res.Errors[bits.TrailingZeros64(miss)]++
					}
				}
			}
		}
	}
	return res
}

// shardSeed is the per-shard RNG seed derivation of internal/mc
// (SplitMix64 over the base seed and shard index). The replay's tally
// check fails if the two ever diverge.
func shardSeed(seed uint64, index int) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(index+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
