package mc_test

// Two-path differential test for the Monte Carlo layer, through the
// shared harness: interpreted and auto (compiled sampler + predecoder)
// execution must return bit-identical LERResults across worker counts
// and RunFrom increment schedules. The broad sweep across
// error rates lives with the harness itself; this pins the property from
// mc's own test suite so `go test ./internal/mc` alone witnesses it.

import (
	"testing"

	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/surface"
	"latticesim/internal/testutil/diffharness"
)

func TestPipelinePathsBitIdentical(t *testing.T) {
	res, err := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mc.NewPipeline(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	diffharness.ComparePipelines(t, pl, 2*mc.ShardShots+100, 42,
		[]int{1, 4}, [][]int{{mc.ShardShots}})
}
