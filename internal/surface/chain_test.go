package surface

import (
	"testing"

	"latticesim/internal/dem"
	"latticesim/internal/hardware"
	"latticesim/internal/stats"
	"latticesim/internal/tableau"
)

func TestChainDetectorsDeterministic(t *testing.T) {
	for _, basis := range []Basis{BasisX, BasisZ} {
		for _, k := range []int{2, 3, 4} {
			spec := ChainSpec{D: 3, K: k, Basis: basis, HW: hardware.Ideal(), P: 0}
			res, err := spec.Build()
			if err != nil {
				t.Fatalf("basis %v k=%d: %v", basis, k, err)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				run := tableau.Run(res.Circuit, stats.NewRand(seed), false)
				for i, fired := range run.Detectors {
					if fired {
						t.Fatalf("basis %v k=%d seed %d: detector %d fired", basis, k, seed, i)
					}
				}
				for i, flipped := range run.Observables {
					if flipped {
						t.Fatalf("basis %v k=%d seed %d: observable %d flipped", basis, k, seed, i)
					}
				}
			}
		}
	}
}

func TestChainObservableCount(t *testing.T) {
	res, err := ChainSpec{D: 3, K: 4, Basis: BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 3 seam observables + 1 single logical.
	if got := res.Circuit.NumObservables(); got != 4 {
		t.Fatalf("observables = %d, want 4", got)
	}
}

// TestChainK2MatchesMergeSpec: a 2-patch chain must be semantically
// identical to the dedicated two-patch merge generator. Op ordering
// differs slightly (the chain initializes each patch right before its
// rounds), so equality is checked on the canonical detector error model,
// which captures every error mechanism, its probability and its
// detector/observable footprint.
func TestChainK2MatchesMergeSpec(t *testing.T) {
	for _, basis := range []Basis{BasisX, BasisZ} {
		chain, err := ChainSpec{D: 3, K: 2, Basis: basis, HW: hardware.IBM(), P: 1e-3}.Build()
		if err != nil {
			t.Fatal(err)
		}
		merge, err := MergeSpec{D: 3, Basis: basis, HW: hardware.IBM(), P: 1e-3}.Build()
		if err != nil {
			t.Fatal(err)
		}
		cd := dem.FromCircuit(chain.Circuit)
		md := dem.FromCircuit(merge.Circuit)
		if cd.Text() != md.Text() {
			t.Fatalf("basis %v: K=2 chain and MergeSpec detector error models differ", basis)
		}
		if chain.Circuit.NumQubits() != merge.Circuit.NumQubits() ||
			chain.Circuit.NumDetectors() != merge.Circuit.NumDetectors() ||
			chain.Circuit.NumObservables() != merge.Circuit.NumObservables() {
			t.Fatalf("basis %v: structural counts differ", basis)
		}
	}
}

func TestChainPerPatchConfig(t *testing.T) {
	base := hardware.IBM().CycleNs()
	spec := ChainSpec{
		D: 3, K: 3, Basis: BasisX, HW: hardware.IBM(), P: 1e-3,
		CycleNs:      []float64{base, base + 150, base + 325},
		Rounds:       []int{4, 5, 6},
		SpreadIdleNs: []float64{500, 0, 0},
		LumpedIdleNs: []float64{0, 250, 0},
	}
	res, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res.MergeRound != 6 {
		t.Fatalf("merge round %d, want max pre-merge rounds 6", res.MergeRound)
	}
	if err := res.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChainValidation(t *testing.T) {
	if _, err := (ChainSpec{D: 3, K: 1, Basis: BasisX, HW: hardware.IBM()}).Build(); err == nil {
		t.Fatal("K=1 must be rejected")
	}
	if _, err := (ChainSpec{D: 4, K: 2, Basis: BasisX, HW: hardware.IBM()}).Build(); err == nil {
		t.Fatal("even distance must be rejected")
	}
	if _, err := (ChainSpec{D: 3, K: 2, Basis: BasisX, HW: hardware.IBM(), CycleNs: []float64{1}}).Build(); err == nil {
		t.Fatal("sub-base cycle must be rejected")
	}
}

func TestChainQubitBudget(t *testing.T) {
	d, k := 3, 3
	res, err := ChainSpec{D: d, K: k, Basis: BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	span := k*(d+1) - 1
	want := d*span + d*span - 1 // data + merged-patch ancillas
	if got := res.Circuit.NumQubits(); got != want {
		t.Fatalf("qubits = %d, want %d", got, want)
	}
}
