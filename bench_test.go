package latticesim

// One benchmark per table and figure of the paper (see DESIGN.md §4 for
// the experiment index). Each benchmark regenerates its artifact through
// the same runner the CLI uses, at benchmark-friendly scale: the paper's
// full settings are reproduced with
//
//	go run ./cmd/latticesim -shots 100000000 -maxd 15 all
//
// The microbenchmarks at the bottom measure the substrate primitives
// (frame sampling, decoding, DEM extraction, planning).

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"latticesim/internal/core"
	"latticesim/internal/decoder"
	"latticesim/internal/dem"
	"latticesim/internal/exp"
	"latticesim/internal/frame"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/microarch"
	"latticesim/internal/stats"
	"latticesim/internal/surface"
)

// benchOpts keeps per-iteration cost low; benchmarks measure the cost of
// regenerating each artifact at reduced scale.
var benchOpts = exp.Options{Shots: 2000, MaxD: 3, Seed: 7}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1cRepetitionIdle(b *testing.B)     { runExperiment(b, "fig1c") }
func BenchmarkFig1dNormalizedTCount(b *testing.B)   { runExperiment(b, "fig1d") }
func BenchmarkFig3cSyncRate(b *testing.B)           { runExperiment(b, "fig3c") }
func BenchmarkFig4aCultivationSlack(b *testing.B)   { runExperiment(b, "fig4a") }
func BenchmarkFig4bQLDPCSlack(b *testing.B)         { runExperiment(b, "fig4b") }
func BenchmarkFig6DDFidelity(b *testing.B)          { runExperiment(b, "fig6") }
func BenchmarkFig7aWeightProfile(b *testing.B)      { runExperiment(b, "fig7a") }
func BenchmarkFig7bHammingWeight(b *testing.B)      { runExperiment(b, "fig7b") }
func BenchmarkFig10Diophantine(b *testing.B)        { runExperiment(b, "fig10") }
func BenchmarkFig11HybridGrid(b *testing.B)         { runExperiment(b, "fig11") }
func BenchmarkFig14ActiveVsPassive(b *testing.B)    { runExperiment(b, "fig14") }
func BenchmarkFig15IdealActivePassive(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkFig16WorkloadLER(b *testing.B)        { runExperiment(b, "fig16") }
func BenchmarkFig17ActiveIntra(b *testing.B)        { runExperiment(b, "fig17") }
func BenchmarkFig18aSpreadRounds(b *testing.B)      { runExperiment(b, "fig18a") }
func BenchmarkFig18bExtraRounds(b *testing.B)       { runExperiment(b, "fig18b") }
func BenchmarkFig19PolicyComparison(b *testing.B)   { runExperiment(b, "fig19") }
func BenchmarkFig20SyncEngine(b *testing.B)         { runExperiment(b, "fig20") }
func BenchmarkFig21NeutralAtom(b *testing.B)        { runExperiment(b, "fig21") }
func BenchmarkFig22DecoderSpeedup(b *testing.B)     { runExperiment(b, "fig22") }
func BenchmarkTable1ErrorCounts(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkTable2PolicySummary(b *testing.B)     { runExperiment(b, "table2") }
func BenchmarkTable4MeanReductions(b *testing.B)    { runExperiment(b, "table4") }
func BenchmarkTable5NeutralAtomRounds(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkExtChain(b *testing.B)                { runExperiment(b, "ext-chain") }
func BenchmarkExtDropout(b *testing.B)              { runExperiment(b, "ext-dropout") }
func BenchmarkExtAblation(b *testing.B)             { runExperiment(b, "ext-ablation") }

// --- substrate microbenchmarks ---

func buildMerge(b *testing.B, d int) *surface.MergeResult {
	b.Helper()
	res, err := surface.MergeSpec{D: d, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFrameSampling measures raw detector-sampling throughput
// (shots/op = 64) of the interpreting sampler.
func BenchmarkFrameSampling(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		res := buildMerge(b, d)
		s := frame.NewSampler(res.Circuit)
		rng := stats.NewRand(1)
		b.Run(sizeName(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.SampleBatch(rng, 64)
			}
			b.ReportMetric(64*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkFrameSamplingCompiled measures the compiled-plan sampler on
// the same circuits; the ratio to BenchmarkFrameSampling is the win from
// instruction fusion and precomputed noise constants alone.
func BenchmarkFrameSamplingCompiled(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		res := buildMerge(b, d)
		s := frame.Compile(res.Circuit).NewSampler()
		rng := stats.NewRand(1)
		b.Run(sizeName(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.SampleBatch(rng, 64)
			}
			b.ReportMetric(64*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkFrameSamplingWide measures the wide-word sampler — groups of
// frame.WideWords 64-shot batches per pass over the compiled plan — on
// the same circuits as BenchmarkFrameSamplingCompiled; the ratio is the
// win from amortizing plan walking across lanes.
func BenchmarkFrameSamplingWide(b *testing.B) {
	group := []int{64, 64, 64, 64}[:frame.WideWords]
	for _, d := range []int{3, 5, 7} {
		res := buildMerge(b, d)
		s := frame.Compile(res.Circuit).NewWideSampler()
		rng := stats.NewRand(1)
		b.Run(sizeName(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.SampleGroup(rng, group)
			}
			b.ReportMetric(float64(64*len(group))*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkBatchExtraction measures grouped sparse extraction — the
// Extract call producing the flat SparseBatch the decoder layer consumes
// whole — on the same low-error d=7 batch as BenchmarkExtraction.
func BenchmarkBatchExtraction(b *testing.B) {
	res, err := surface.MemorySpec{D: 7, Basis: surface.BasisZ, HW: hardware.IBM(), P: 1e-4}.Build()
	if err != nil {
		b.Fatal(err)
	}
	s := frame.Compile(res.Circuit).NewSampler()
	batch := s.SampleBatch(stats.NewRand(1), 64)
	ext := frame.NewExtractor()
	var sp frame.SparseBatch
	b.Run("grouped/d7-p=0.0001", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ext.Extract(batch, &sp)
		}
		b.ReportMetric(64*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
	})
}

// BenchmarkPredecodedDecode compares bare union-find against the
// predecoder-fronted decoder on sampled d=7 memory syndromes at the
// paper's operating point and below threshold — the workloads the
// predecoder's weight gate is tuned on. Both decode the identical
// per-shot defect stream; the ratio is the decomposition win.
func BenchmarkPredecodedDecode(b *testing.B) {
	for _, p := range []float64{1e-3, 1e-4} {
		res, err := surface.MemorySpec{D: 7, Basis: surface.BasisZ, HW: hardware.IBM(), P: p}.Build()
		if err != nil {
			b.Fatal(err)
		}
		m := dem.FromCircuit(res.Circuit)
		g := decoder.BuildGraph(m)
		// Pool non-empty syndromes from many batches, the mix the Monte
		// Carlo loop actually decodes (clean batches never reach Decode).
		s := frame.Compile(res.Circuit).NewSampler()
		ext := frame.NewExtractor()
		rng := stats.NewRand(1)
		var pool [][]int
		for len(pool) < 512 {
			ext.ForEachShot(s.SampleBatch(rng, 64), func(_ int, defects []int, _ uint64) {
				if len(defects) > 0 {
					pool = append(pool, append([]int(nil), defects...))
				}
			})
		}
		pre := decoder.NewPredecoder(g)
		for _, variant := range []string{"unionfind", "predecoded"} {
			var dec decoder.Decoder = decoder.NewUnionFind(g)
			if variant == "predecoded" {
				dec = pre.NewDecoder(decoder.NewUnionFind(g))
			}
			for _, defects := range pool {
				dec.Decode(defects) // reach the scratch high-water mark
			}
			b.Run(fmt.Sprintf("%s/d7-p=%g", variant, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dec.Decode(pool[i%len(pool)])
				}
			})
		}
	}
}

// BenchmarkExtraction compares the dense per-shot scan with the sparse
// transpose extractor on a low-error-rate d=7 memory batch — the regime
// where almost no detectors fire and the dense O(64 × detectors) scan is
// pure overhead.
func BenchmarkExtraction(b *testing.B) {
	res, err := surface.MemorySpec{D: 7, Basis: surface.BasisZ, HW: hardware.IBM(), P: 1e-4}.Build()
	if err != nil {
		b.Fatal(err)
	}
	s := frame.Compile(res.Circuit).NewSampler()
	batch := s.SampleBatch(stats.NewRand(1), 64)
	sink := 0
	b.Run("dense/d7-p=0.0001", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch.ForEachShot(func(_ int, defects []int, _ uint64) { sink += len(defects) })
		}
		b.ReportMetric(64*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
	})
	b.Run("sparse/d7-p=0.0001", func(b *testing.B) {
		ext := frame.NewExtractor()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ext.ForEachShot(batch, func(_ int, defects []int, _ uint64) { sink += len(defects) })
		}
		b.ReportMetric(64*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
	})
	_ = sink
}

// BenchmarkLUTDecode measures steady-state LUT decoding; allocs/op must
// stay 0 (the scratch-keyed map probe).
func BenchmarkLUTDecode(b *testing.B) {
	res, err := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		b.Fatal(err)
	}
	m := dem.FromCircuit(res.Circuit)
	lut := decoder.BuildLUT(m, 3<<10, 8)
	pool := decodePool(b, res)
	lut.Decode(pool[0]) // warm the key scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lut.Decode(pool[i%len(pool)])
	}
}

// BenchmarkUnionFindDecodeSteady measures steady-state union-find
// decoding after scratch warm-up; allocs/op must stay 0.
func BenchmarkUnionFindDecodeSteady(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		res := buildMerge(b, d)
		m := dem.FromCircuit(res.Circuit)
		g := decoder.BuildGraph(m)
		uf := decoder.NewUnionFind(g)
		pool := decodePool(b, res)
		for _, defects := range pool {
			uf.Decode(defects) // reach the scratch high-water mark
		}
		b.Run(sizeName(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				uf.Decode(pool[i%len(pool)])
			}
		})
	}
}

// BenchmarkPipelineRunLowP is the acceptance benchmark of ISSUE 3: the
// end-to-end sample→extract→decode loop at the paper's operating point
// (p=1e-3) and below threshold (p=1e-4), where the zero-syndrome and
// sparse-extraction fast paths carry the load. workers=1 isolates the
// per-shot cost from parallel speedup.
func BenchmarkPipelineRunLowP(b *testing.B) {
	const shots = 40960
	for _, p := range []float64{1e-3, 1e-4} {
		res, err := surface.MemorySpec{D: 7, Basis: surface.BasisZ, HW: hardware.IBM(), P: p}.Build()
		if err != nil {
			b.Fatal(err)
		}
		pl, err := mc.NewPipeline(res.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		pl.Workers = 1
		b.Run(fmt.Sprintf("p=%g/workers=1", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := pl.Run(shots, 1)
				if r.Shots != shots {
					b.Fatalf("shots %d", r.Shots)
				}
			}
			b.ReportMetric(float64(shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// decodePool samples one 64-shot batch and returns its defect sets.
func decodePool(b *testing.B, res *surface.MergeResult) [][]int {
	b.Helper()
	s := frame.NewSampler(res.Circuit)
	var pool [][]int
	batch := s.SampleBatch(stats.NewRand(1), 64)
	batch.ForEachShot(func(_ int, defects []int, _ uint64) {
		pool = append(pool, append([]int(nil), defects...))
	})
	if len(pool) == 0 {
		b.Fatal("empty decode pool")
	}
	return pool
}

// BenchmarkDEMExtraction measures reverse error-propagation time.
func BenchmarkDEMExtraction(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		res := buildMerge(b, d)
		b.Run(sizeName(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dem.FromCircuit(res.Circuit)
			}
		})
	}
}

// BenchmarkUnionFindDecode measures per-shot decode time on sampled
// syndromes.
func BenchmarkUnionFindDecode(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		res := buildMerge(b, d)
		m := dem.FromCircuit(res.Circuit)
		g := decoder.BuildGraph(m)
		uf := decoder.NewUnionFind(g)
		s := frame.NewSampler(res.Circuit)
		rng := stats.NewRand(1)
		// Pre-sample a pool of defect sets.
		var pool [][]int
		batch := s.SampleBatch(rng, 64)
		batch.ForEachShot(func(_ int, defects []int, _ uint64) {
			pool = append(pool, append([]int(nil), defects...))
		})
		b.Run(sizeName(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				uf.Decode(pool[i%len(pool)])
			}
		})
	}
}

// BenchmarkCircuitGeneration measures lattice-surgery circuit build time.
func BenchmarkCircuitGeneration(b *testing.B) {
	for _, d := range []int{3, 5, 7, 9} {
		b.Run(sizeName(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildMerge(b, d)
			}
		})
	}
}

// BenchmarkPipelineRunWorkers measures the full sample→decode Monte
// Carlo loop on the acceptance workload of EXPERIMENTS.md §9 — a
// 40960-shot distance-7 memory experiment — sequential (workers=1)
// against the full worker pool (workers=NumCPU). Shot-sharded execution
// is bit-identical across worker counts, so the two sub-benchmarks do
// the same work and their ns/op ratio is the parallel speedup.
func BenchmarkPipelineRunWorkers(b *testing.B) {
	const shots = 40960
	res, err := surface.MemorySpec{D: 7, Basis: surface.BasisZ, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		b.Fatal(err)
	}
	pl, err := mc.NewPipeline(res.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		pl.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := pl.Run(shots, 1)
				if r.Shots != shots {
					b.Fatalf("shots %d", r.Shots)
				}
			}
			b.ReportMetric(float64(shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkFrameSamplingParallel measures sharded sampler throughput
// with one private sampler per worker, the substrate primitive behind
// BenchmarkPipelineRunWorkers (compare against BenchmarkFrameSampling
// for the single-stream baseline).
func BenchmarkFrameSamplingParallel(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		res := buildMerge(b, d)
		pl, err := mc.NewPipeline(res.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		pl.Workers = runtime.NumCPU()
		// One 4096-shot shard per worker, so the whole pool is busy.
		shots := runtime.NumCPU() * 4096
		b.Run(sizeName(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// RoundWeights is pure sampling (no decode): one
				// CountDetectorFires pass per shard on the pool.
				pl.RoundWeights(shots, 1)
			}
			b.ReportMetric(float64(shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkPlanSyncK measures k-patch synchronization planning on the
// Fig. 12 engine (the Fig. 20 right panel at microbenchmark precision).
func BenchmarkPlanSyncK(b *testing.B) {
	cycles := []int64{1000, 1150, 1325, 1725}
	for _, k := range []int{2, 10, 50} {
		eng := microarch.NewEngine(k)
		ids := make([]int, k)
		for i := 0; i < k; i++ {
			id, err := eng.Register(cycles[i%len(cycles)])
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
		}
		eng.Tick(12345)
		b.Run(sizeName(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.PlanSync(ids, core.Hybrid, 400, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHybridSolver measures the Eq. 2 iterative solve.
func BenchmarkHybridSolver(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.SolveHybrid(1000, 1325, int64(i%1300)+100, 400, 5)
	}
}

func sizeName(n int) string {
	const digits = "0123456789"
	if n < 10 {
		return "d" + digits[n:n+1]
	}
	return "d" + digits[n/10:n/10+1] + digits[n%10:n%10+1]
}
