package frame

// The sampler equivalence properties (interpreted vs compiled) now
// live in the shared differential harness — see
// internal/testutil/diffharness and diff_test.go in this package's
// external test suite. This file keeps the plan-structure and scratch
// tests that need package-internal visibility.

import (
	"testing"

	"latticesim/internal/circuit"
	"latticesim/internal/stats"
)

// TestCompileFusesAndDrops checks the plan is actually compact: adjacent
// same-type gate ops fuse, and annotations vanish from the stream.
func TestCompileFusesAndDrops(t *testing.T) {
	c := circuit.New()
	c.Reset(0, 1, 2)
	c.H(0)
	c.H(1) // fuses with previous H
	c.Tick()
	c.H(2) // TICK is dropped and draws nothing, so this fuses across it
	c.QubitCoords(0, 0, 0)
	c.CNOT(0, 1)
	c.CNOT(1, 2) // fuses
	c.XError(0.1, 0)
	c.XError(0.1, 1) // noise must NOT fuse
	r := c.Measure(0, 1)
	c.Detector(nil, r[0])
	c.Observable(0, r[1])
	plan := Compile(c)
	// Expected stream: R, H(0,1,2), CX(0,1,1,2), XE, XE, M, DET, OBS = 8.
	if plan.NumInstructions() != 8 {
		t.Fatalf("plan has %d instructions, want 8", plan.NumInstructions())
	}
	if plan.FusedOps() != 3 {
		t.Fatalf("plan fused %d ops, want 3 (two H, one CX)", plan.FusedOps())
	}
	if plan.SourceOps() != len(c.Ops) {
		t.Fatalf("SourceOps %d != len(Ops) %d", plan.SourceOps(), len(c.Ops))
	}
	// Fused instructions must not have mutated the circuit's own slices.
	if len(c.Ops[1].Targets) != 1 || c.Ops[1].Targets[0] != 0 {
		t.Fatalf("compilation mutated circuit op targets: %v", c.Ops[1].Targets)
	}
}

// TestForEachShotScratchReuse verifies the dense iterator reuses the
// sampler's hoisted defects buffer across batches (the per-call
// allocation fix) without corrupting results.
func TestForEachShotScratchReuse(t *testing.T) {
	c := circuit.New()
	c.Reset(0)
	c.XError(1.0, 0)
	rec := c.Measure(0)
	c.Detector(nil, rec[0])
	s := NewSampler(c)
	rng := stats.NewRand(3)
	b := s.SampleBatch(rng, 64)
	var first []int
	b.ForEachShot(func(_ int, defects []int, _ uint64) {
		if first == nil {
			first = defects
		}
	})
	b2 := s.SampleBatch(rng, 64)
	b2.ForEachShot(func(_ int, defects []int, _ uint64) {
		if len(defects) != 1 || defects[0] != 0 {
			t.Fatalf("reused-scratch batch: defects %v", defects)
		}
	})
	// Hand-built batches (no sampler scratch) must still work.
	hb := Batch{Shots: 2, Det: []uint64{3}, Obs: []uint64{1}}
	count := 0
	hb.ForEachShot(func(shot int, defects []int, mask uint64) {
		count++
		if len(defects) != 1 || defects[0] != 0 {
			t.Fatalf("hand-built batch shot %d: defects %v", shot, defects)
		}
	})
	if count != 2 {
		t.Fatalf("hand-built batch visited %d shots, want 2", count)
	}
}

// TestBatchMaskHelpers covers the valid-shot mask and the zero-syndrome
// batch predicate, including garbage bits above the shot count.
func TestBatchMaskHelpers(t *testing.T) {
	b := Batch{Shots: 3, Det: []uint64{0xF8}, Obs: nil} // fires only above bit 2
	if b.Mask() != 0x7 {
		t.Fatalf("mask %x, want 0x7", b.Mask())
	}
	if b.AnyDetectorFired() {
		t.Fatal("garbage bits above Shots must not count as fires")
	}
	b.Det[0] |= 0x4
	if !b.AnyDetectorFired() {
		t.Fatal("fire in a valid lane not detected")
	}
	full := Batch{Shots: 64, Det: []uint64{1 << 63}}
	if !full.AnyDetectorFired() {
		t.Fatal("bit 63 of a full batch is valid")
	}
}
