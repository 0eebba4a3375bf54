package surface

import (
	"latticesim/internal/circuit"
	"latticesim/internal/hardware"
)

// MemorySpec configures a single-patch memory experiment: initialize a
// logical qubit, run syndrome rounds, read out transversally. It is the
// standard baseline used to validate the code substrate (logical error
// rate falls with distance) and for the extra-rounds study of Fig. 18(b).
type MemorySpec struct {
	D      int
	Basis  Basis // BasisZ: |0⟩_L memory; BasisX: |+⟩_L memory
	HW     hardware.Config
	P      float64
	Rounds int // zero selects d+1

	// CycleNs stretches the syndrome cycle (zero selects the base cycle).
	CycleNs float64
	// SpreadIdleNs is split before every round (Active-style slack, used
	// by single-patch idling studies).
	SpreadIdleNs float64
	// LumpedIdleNs idles once before the final round.
	LumpedIdleNs float64
}

// MemoryResult is the generated circuit plus metadata. The logical
// observable has index 0.
type MemoryResult struct {
	Circuit *circuit.Circuit
	Layout  *Layout
	Rounds  int
}

// Build generates the memory experiment circuit: prepare the patch, run
// its rounds with the lumped idle before the last one, read out.
func (s MemorySpec) Build() (*MemoryResult, error) {
	if s.Rounds == 0 {
		s.Rounds = s.D + 1
	}
	if s.CycleNs == 0 {
		s.CycleNs = s.HW.CycleNs()
	}
	b, err := newBuilder(s.D, s.Basis, s.HW, s.P, []float64{s.CycleNs}, s.Rounds)
	if err != nil {
		return nil, err
	}
	ph := b.patches[0]
	b.prepare(ph.dataQubits, b.isX)
	b.standalone(ph, s.Rounds, s.SpreadIdleNs, s.LumpedIdleNs, 0)
	if err := b.readout(ph, s.Rounds, 0); err != nil {
		return nil, err
	}
	return &MemoryResult{Circuit: b.c, Layout: b.lay, Rounds: s.Rounds}, nil
}
