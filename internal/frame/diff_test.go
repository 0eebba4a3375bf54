package frame_test

// Differential tests for the frame layer, driven by the shared harness
// (internal/testutil/diffharness): sampler-path equivalence pinned on a
// real lattice-surgery workload, and the extraction equivalences —
// sparse-vs-dense iteration and the grouped SparseBatch form — over
// randomized circuits. The broad randomized sampler sweep lives with the
// harness itself (diffharness's own test suite); these tests cover what
// needs frame-specific surfaces.

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"latticesim/internal/frame"
	"latticesim/internal/hardware"
	"latticesim/internal/stats"
	"latticesim/internal/surface"
	"latticesim/internal/testutil/diffharness"
)

// TestSamplerPathsMatchOnSurface pins the interpreted/compiled sampler
// equivalence on a real lattice-surgery circuit, the workload the
// Monte Carlo layer runs.
func TestSamplerPathsMatchOnSurface(t *testing.T) {
	res, err := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	diffharness.CompareSamplers(t, res.Circuit, 5, diffharness.Schedule{64, 64, 64, 40})
}

// TestExtractorMatchesDense is the extraction equivalence property: the
// sparse transpose-based extractor must visit the identical
// (shot, defects, obsMask) stream as the dense scan, over randomized
// circuits and batch sizes — and Extract must deliver exactly that
// stream in grouped SparseBatch form.
func TestExtractorMatchesDense(t *testing.T) {
	type shotView struct {
		shot    int
		defects []int
		mask    uint64
	}
	ext := frame.NewExtractor()
	var sp frame.SparseBatch
	for trial := 0; trial < 30; trial++ {
		genRng := rand.New(rand.NewPCG(uint64(trial), 7))
		c := diffharness.RandomCircuit(genRng, int32(4+genRng.IntN(6)), 30+genRng.IntN(60))
		s := frame.NewSampler(c)
		rng := stats.NewRand(uint64(trial) + 1)
		for _, shots := range []int{64, 31, 1} {
			b := s.SampleBatch(rng, shots)
			var dense, sparse []shotView
			b.ForEachShot(func(shot int, defects []int, mask uint64) {
				dense = append(dense, shotView{shot, append([]int(nil), defects...), mask})
			})
			ext.ForEachShot(b, func(shot int, defects []int, mask uint64) {
				sparse = append(sparse, shotView{shot, append([]int(nil), defects...), mask})
			})
			if !reflect.DeepEqual(dense, sparse) {
				t.Fatalf("trial %d shots %d: sparse extraction diverges from dense scan", trial, shots)
			}
			ext.Extract(b, &sp)
			if len(sp.ObsMask) != shots || len(sp.Off) != shots+1 {
				t.Fatalf("trial %d shots %d: SparseBatch holds %d shots (%d offsets), want %d",
					trial, shots, len(sp.ObsMask), len(sp.Off), shots)
			}
			for i, dv := range dense {
				got := sp.Shot(i)
				if len(got) == 0 && len(dv.defects) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, dv.defects) || sp.ObsMask[i] != dv.mask {
					t.Fatalf("trial %d shots %d: SparseBatch shot %d = (%v, %#x), dense scan saw (%v, %#x)",
						trial, shots, i, got, sp.ObsMask[i], dv.defects, dv.mask)
				}
			}
		}
	}
}
