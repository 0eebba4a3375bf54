package dem

import (
	"testing"

	"latticesim/internal/circuit"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
)

// maxAllocsPerError bounds FromCircuit's heap allocations per extracted
// error mechanism. A new symptom costs two (its map key and its detector
// list); the rest is amortized growth plus the per-qubit sensitivity
// updates of the backward walk.
const maxAllocsPerError = 5

// TestFromCircuitAllocsPerError keeps extraction allocation-light: the
// symptom key is probed from a reused buffer, and symptoms that are
// recorded and dropped (Y = X·Z terms, DEPOLARIZE2 products) are XORed
// into scratch instead of allocated.
func TestFromCircuitAllocsPerError(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	for _, b := range []surface.Basis{surface.BasisX, surface.BasisZ} {
		mem, err := surface.MemorySpec{D: 3, Basis: b, HW: hardware.IBM(), P: 1e-3}.Build()
		if err != nil {
			t.Fatal(err)
		}
		merge, err := surface.MergeSpec{D: 3, Basis: b, HW: hardware.IBM(), P: 1e-3}.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name    string
			circuit *circuit.Circuit
		}{
			{"memory", mem.Circuit},
			{"merge", merge.Circuit},
		} {
			n := len(FromCircuit(tc.circuit).Errors)
			allocs := testing.AllocsPerRun(5, func() { FromCircuit(tc.circuit) })
			if per := allocs / float64(n); per > maxAllocsPerError {
				t.Errorf("%v %s: %.0f allocs for %d errors = %.2f per error, want <= %d",
					b, tc.name, allocs, n, per, maxAllocsPerError)
			} else {
				t.Logf("%v %s: %.2f allocs per error (%d errors)", b, tc.name, per, n)
			}
		}
	}
}
