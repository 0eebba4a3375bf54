package mc

import (
	"runtime"
	"testing"

	"latticesim/internal/hardware"
	"latticesim/internal/surface"
)

// liveHeap collects and returns the live heap in bytes. The second
// collection frees what sync.Pool victim caches kept through the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestPipelineBytesTracksHeap checks Bytes against the live-heap growth
// a pipeline causes, for X-basis merge circuits at d = 3, 5 and 7: once
// freshly built, with no predecoder memo filled yet, and again after a
// 4096-shot run has filled the memos it needed. Each estimate must land
// within 25%. The spec's other build products (layout, plans) are
// dropped before the readings, as the build cache drops them.
func TestPipelineBytesTracksHeap(t *testing.T) {
	check := func(d int, stage string, est, grew int64) {
		ratio := float64(est) / float64(grew)
		t.Logf("d=%d %s: Bytes %.3f MB, heap growth %.3f MB, ratio %.3f", d, stage, float64(est)/1e6, float64(grew)/1e6, ratio)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("d=%d %s: Bytes() = %d, live heap grew %d (ratio %.2f), want within 25%%", d, stage, est, grew, ratio)
		}
	}
	for _, d := range []int{3, 5, 7} {
		spec := surface.MergeSpec{D: d, Basis: surface.BasisX, HW: hardware.IBM().Scaled(1000), P: 1e-3}
		before := liveHeap()
		res, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		res = nil
		if n := pl.pre.MemoBytes(); n != 0 {
			t.Fatalf("d=%d: freshly built pipeline holds %d memo bytes, want 0", d, n)
		}
		check(d, "built", pl.Bytes(), liveHeap()-before)
		pl.Workers = 1
		pl.Run(ShardShots, 5)
		if pl.pre.MemoBytes() == 0 {
			t.Fatalf("d=%d: a %d-shot run filled no predecoder memo", d, ShardShots)
		}
		check(d, "after a run", pl.Bytes(), liveHeap()-before)
		runtime.KeepAlive(pl)
	}
}
