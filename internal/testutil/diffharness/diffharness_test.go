package diffharness

// The randomized differential suite: CI runs it under -race in short mode
// (fixed seeds, reduced trial counts) on every push; the full sweep runs
// behind `make diff-long`. Both modes are deterministic — "short" trims
// trials, it does not change seeds — so a red run always reproduces.

import (
	"math/rand/v2"
	"testing"

	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/surface"
)

// TestDifferentialSamplers fuzzes randomized circuits through both
// frame-layer sampling paths (interpreted, compiled) over the
// boundary-case batch schedule.
func TestDifferentialSamplers(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		genRng := rand.New(rand.NewPCG(uint64(trial), 0xD1FF))
		c := RandomCircuit(genRng, int32(4+genRng.IntN(8)), 40+genRng.IntN(80))
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid circuit: %v", trial, err)
		}
		for _, seed := range []uint64{1, 7, 0xDEAD} {
			CompareSamplers(t, c, seed, DefaultSchedule)
		}
	}
}

// TestDifferentialSamplerGroupShapes runs the compiled sampler through
// schedules DefaultSchedule lacks — a lone batch, full batches after a
// partial one, runs of single and short batches between full ones — so
// scratch left behind by a partial batch must not leak into the next.
func TestDifferentialSamplerGroupShapes(t *testing.T) {
	genRng := rand.New(rand.NewPCG(5, 0xD1FF))
	c := RandomCircuit(genRng, 8, 80)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Schedule{
		{1},
		{64},
		{33, 64},
		{64, 64, 64},
		{64, 64, 64, 64, 7},
		{5, 64, 1, 64, 64, 2},
	} {
		CompareSamplers(t, c, 11, sched)
	}
}

// TestDifferentialPipelines runs both Monte Carlo execution paths over
// real surface-code merge circuits, across worker counts and
// RunFrom increment schedules, asserting every tally bit-identical to
// the interpreted reference.
func TestDifferentialPipelines(t *testing.T) {
	ps := []float64{1e-3, 1e-4}
	shots := 3*mc.ShardShots + 100
	increments := [][]int{{mc.ShardShots}, {mc.ShardShots, 2 * mc.ShardShots}}
	if testing.Short() {
		ps = ps[:1]
		shots = 2*mc.ShardShots + 64
		increments = increments[:1]
	}
	for _, pp := range ps {
		res, err := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.IBM(), P: pp}.Build()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mc.NewPipeline(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		ComparePipelines(t, pl, shots, 42, []int{1, 4}, increments)
	}
}
