package surface

import (
	"testing"

	"latticesim/internal/circuit"
	"latticesim/internal/hardware"
)

// TestGeneratedCircuitReproducible: building the same spec twice must
// produce byte-identical Stim text (idle-channel grouping is sorted).
func TestGeneratedCircuitReproducible(t *testing.T) {
	spec := MergeSpec{D: 3, Basis: BasisX, HW: hardware.IBM(), P: 1e-3, SpreadIdleNs: 500}
	a, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.Circuit.Text() != b.Circuit.Text() {
		t.Fatal("identical specs produced different circuits")
	}
}

// TestIdleChannelAccounting: the per-round idle channels must reflect the
// configured cycle time — stretching P' by 150ns should strictly raise
// its data qubits' idle error probabilities.
func TestIdleChannelAccounting(t *testing.T) {
	base := MergeSpec{D: 3, Basis: BasisX, HW: hardware.IBM(), P: 0}
	stretched := base
	stretched.CyclePPrimeNs = hardware.IBM().CycleNs() + 150

	sum := func(spec MergeSpec) float64 {
		res, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, op := range res.Circuit.Ops {
			if op.Type == circuit.OpPauliChannel1 {
				total += (op.Args[0] + op.Args[1] + op.Args[2]) * float64(len(op.Targets))
			}
		}
		return total
	}
	if sum(stretched) <= sum(base) {
		t.Fatal("cycle stretch must add idle error mass")
	}
}

// TestSlackAddsIdleMass: every slack-injecting policy adds idle error
// relative to the ideal circuit, and the total added mass is comparable
// between Passive and Active (the same slack, differently distributed).
func TestSlackAddsIdleMass(t *testing.T) {
	mass := func(lumped, spread, intra float64) float64 {
		spec := MergeSpec{D: 3, Basis: BasisX, HW: hardware.IBM(), P: 0,
			LumpedIdleNs: lumped, SpreadIdleNs: spread, IntraIdleNs: intra}
		res, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, op := range res.Circuit.Ops {
			if op.Type == circuit.OpPauliChannel1 {
				total += (op.Args[0] + op.Args[1] + op.Args[2]) * float64(len(op.Targets))
			}
		}
		return total
	}
	ideal := mass(0, 0, 0)
	passive := mass(1000, 0, 0)
	active := mass(0, 1000, 0)
	intra := mass(0, 0, 1000)
	if passive <= ideal || active <= ideal || intra <= ideal {
		t.Fatal("slack must add idle error mass")
	}
	// Identical total slack: total added probability mass must agree to
	// within the linearization error of the exponential idle model (<1%).
	dp, da := passive-ideal, active-ideal
	if rel := (dp - da) / dp; rel > 0.01 || rel < -0.01 {
		t.Fatalf("Passive (+%g) and Active (+%g) added masses diverge", dp, da)
	}
	// Active-intra hits measure qubits too, so it must add MORE mass.
	if intra <= passive {
		t.Fatal("Active-intra must add idle mass on ancillas as well")
	}
}

// TestMergeRoundsExtra: extra rounds extend the circuit as configured.
func TestMergeRoundsExtra(t *testing.T) {
	a, err := MergeSpec{D: 3, Basis: BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := MergeSpec{D: 3, Basis: BasisX, HW: hardware.IBM(), P: 1e-3, RoundsP: 10}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Circuit.NumMeasurements() <= a.Circuit.NumMeasurements() {
		t.Fatal("extra rounds must add measurements")
	}
	if b.MergeRound != 10 {
		t.Fatalf("merge round %d, want 10", b.MergeRound)
	}
}

// TestBasisGeometry: XX merges lay patches side by side, ZZ merges stack
// them, with identical total structure by symmetry.
func TestBasisGeometry(t *testing.T) {
	xx, err := MergeSpec{D: 3, Basis: BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	zz, err := MergeSpec{D: 3, Basis: BasisZ, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if xx.Layout.Rows != 3 || xx.Layout.Cols != 7 {
		t.Fatalf("XX layout %dx%d", xx.Layout.Rows, xx.Layout.Cols)
	}
	if zz.Layout.Rows != 7 || zz.Layout.Cols != 3 {
		t.Fatalf("ZZ layout %dx%d", zz.Layout.Rows, zz.Layout.Cols)
	}
	if xx.Circuit.NumQubits() != zz.Circuit.NumQubits() {
		t.Fatal("transposed geometries must use the same qubit budget")
	}
	if xx.Circuit.NumDetectors() != zz.Circuit.NumDetectors() {
		t.Fatal("transposed geometries must define the same detectors")
	}
}

// TestMemorySpecValidation exercises the error paths.
func TestMemorySpecValidation(t *testing.T) {
	if _, err := (MemorySpec{D: 4, HW: hardware.IBM()}).Build(); err == nil {
		t.Error("even distance accepted")
	}
	if _, err := (MemorySpec{D: 3, HW: hardware.IBM(), CycleNs: 1}).Build(); err == nil {
		t.Error("sub-base cycle accepted")
	}
	if _, err := (MergeSpec{D: 3, HW: hardware.IBM(), P: 0.7}).Build(); err == nil {
		t.Error("absurd noise strength accepted")
	}
	if _, err := (MergeSpec{D: 3, HW: hardware.IBM(), RoundsP: -1}).Build(); err == nil {
		t.Error("negative rounds accepted")
	}
	// MemorySpec validates d, p and rounds like its siblings.
	if _, err := (MemorySpec{D: 3, HW: hardware.IBM(), Rounds: -2}).Build(); err == nil {
		t.Error("memory: negative rounds accepted")
	}
	if _, err := (MemorySpec{D: 3, HW: hardware.IBM(), P: 0.7}).Build(); err == nil {
		t.Error("memory: absurd noise strength accepted")
	}
	if _, err := (MemorySpec{D: 3, HW: hardware.IBM(), P: -0.1}).Build(); err == nil {
		t.Error("memory: negative noise strength accepted")
	}
}

// TestScheduleTargets: the zigzag schedules hit each corner exactly once.
func TestScheduleTargets(t *testing.T) {
	lay := NewLayout(3, 3)
	plaqs, err := lay.PlaquettesFor(Region{0, 0, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range plaqs {
		seen := map[int32]bool{}
		count := 0
		for k := 0; k < 4; k++ {
			q := pl.ScheduleTarget(k)
			if q < 0 {
				continue
			}
			if seen[q] {
				t.Fatalf("plaquette (%d,%d) touches qubit %d twice", pl.I, pl.J, q)
			}
			seen[q] = true
			count++
		}
		if count != pl.Weight {
			t.Fatalf("plaquette (%d,%d): %d schedule slots for weight %d", pl.I, pl.J, count, pl.Weight)
		}
		if len(pl.Support()) != pl.Weight {
			t.Fatalf("support/weight mismatch on (%d,%d)", pl.I, pl.J)
		}
	}
}
