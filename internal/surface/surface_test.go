package surface

import (
	"testing"

	"latticesim/internal/hardware"
	"latticesim/internal/stats"
	"latticesim/internal/tableau"
)

func TestPlaquetteCounts(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		lay := NewLayout(d, d)
		plaqs, err := lay.PlaquettesFor(Region{0, 0, d, d})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if len(plaqs) != d*d-1 {
			t.Fatalf("d=%d: got %d stabilizers, want %d", d, len(plaqs), d*d-1)
		}
		nx, nz := 0, 0
		for _, p := range plaqs {
			if p.IsX {
				nx++
			} else {
				nz++
			}
			if p.Weight != 2 && p.Weight != 4 {
				t.Fatalf("d=%d: plaquette (%d,%d) weight %d", d, p.I, p.J, p.Weight)
			}
		}
		if nx+nz != d*d-1 || nx != nz {
			t.Fatalf("d=%d: nx=%d nz=%d (want equal halves of %d)", d, nx, nz, d*d-1)
		}
	}
}

func TestPlaquetteCountsRectangles(t *testing.T) {
	lay := NewLayout(7, 3)
	plaqs, err := lay.PlaquettesFor(Region{0, 0, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plaqs) != 7*3-1 {
		t.Fatalf("got %d stabilizers, want %d", len(plaqs), 7*3-1)
	}
}

func TestMemoryDetectorsDeterministic(t *testing.T) {
	for _, basis := range []Basis{BasisZ, BasisX} {
		spec := MemorySpec{D: 3, Basis: basis, HW: hardware.Ideal(), P: 0}
		res, err := spec.Build()
		if err != nil {
			t.Fatalf("%v: %v", basis, err)
		}
		for seed := uint64(1); seed <= 5; seed++ {
			run := tableau.Run(res.Circuit, stats.NewRand(seed), false)
			for i, fired := range run.Detectors {
				if fired {
					t.Fatalf("basis %v seed %d: detector %d fired in noiseless run", basis, seed, i)
				}
			}
			for i, flipped := range run.Observables {
				if flipped {
					t.Fatalf("basis %v seed %d: observable %d flipped in noiseless run", basis, seed, i)
				}
			}
		}
	}
}

func TestMergeDetectorsDeterministic(t *testing.T) {
	for _, basis := range []Basis{BasisZ, BasisX} {
		for _, d := range []int{3, 5} {
			spec := MergeSpec{D: d, Basis: basis, HW: hardware.Ideal(), P: 0}
			res, err := spec.Build()
			if err != nil {
				t.Fatalf("%v d=%d: %v", basis, d, err)
			}
			for seed := uint64(1); seed <= 5; seed++ {
				run := tableau.Run(res.Circuit, stats.NewRand(seed), false)
				for i, fired := range run.Detectors {
					if fired {
						t.Fatalf("basis %v d=%d seed %d: detector %d fired in noiseless run", basis, d, seed, i)
					}
				}
				for i, flipped := range run.Observables {
					if flipped {
						t.Fatalf("basis %v d=%d seed %d: observable %d flipped (non-deterministic logical)", basis, d, seed, i)
					}
				}
			}
		}
	}
}

func TestMergeWithPolicyIdlesStillDeterministic(t *testing.T) {
	// Idle channels with zero probability mass are dropped; with
	// probability they only add noise ops, never changing determinism.
	spec := MergeSpec{
		D: 3, Basis: BasisX, HW: hardware.Ideal(), P: 0,
		LumpedIdleNs: 1000, SpreadIdleNs: 500, IntraIdleNs: 300,
		CyclePPrimeNs: hardware.Ideal().CycleNs() + 150,
		RoundsP:       6, RoundsPPrime: 5,
	}
	res, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := tableau.Run(res.Circuit, stats.NewRand(7), false)
	for i, fired := range run.Detectors {
		if fired {
			t.Fatalf("detector %d fired in noiseless run", i)
		}
	}
}

func TestMergeCircuitShape(t *testing.T) {
	spec := MergeSpec{D: 3, Basis: BasisX, HW: hardware.IBM(), P: 1e-3}
	res, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Circuit
	if c.NumObservables() != 2 {
		t.Fatalf("observables = %d, want 2", c.NumObservables())
	}
	// d=3 XX merge: bounding grid 3×7 data, merged patch has 3*7-1
	// stabilizers.
	wantQubits := 3*7 + 3*7 - 1
	if c.NumQubits() != wantQubits {
		t.Fatalf("qubits = %d, want %d", c.NumQubits(), wantQubits)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.MergeRound != res.RoundsP {
		t.Fatalf("merge round %d, want %d", res.MergeRound, res.RoundsP)
	}
}

// TestParseBasis: the one basis parser every entry point shares.
func TestParseBasis(t *testing.T) {
	for in, want := range map[string]Basis{"": BasisX, "X": BasisX, "XX": BasisX, "Z": BasisZ, "ZZ": BasisZ} {
		if got, err := ParseBasis(in); err != nil || got != want {
			t.Errorf("ParseBasis(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"Y", "xx", "XZ"} {
		if _, err := ParseBasis(in); err == nil || err.Error() != `unknown basis "`+in+`" (X or Z)` {
			t.Errorf("ParseBasis(%q) error %v", in, err)
		}
	}
}
