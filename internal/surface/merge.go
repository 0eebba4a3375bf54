package surface

import (
	"latticesim/internal/circuit"
	"latticesim/internal/hardware"
)

// MergeSpec configures a two-patch Lattice Surgery experiment following
// the paper's protocol (Fig. 13): both patches are initialized and run
// for d+1 rounds (plus any policy-mandated extra rounds), the leading
// patch P absorbs the synchronization slack as idle time according to the
// policy, the patches merge and run d+1 more rounds, and everything is
// read out transversally.
type MergeSpec struct {
	// D is the code distance (odd, ≥ 3).
	D int
	// Basis selects XX or ZZ lattice surgery.
	Basis Basis
	// HW supplies gate latencies and coherence times.
	HW hardware.Config
	// P is the circuit-level depolarizing strength (paper: 1e-3).
	P float64

	// CyclePNs / CyclePPrimeNs are the patches' syndrome cycle times.
	// Zero selects the hardware base cycle. Values above the base cycle
	// add the surplus as per-round idle (emulating deeper syndrome
	// circuits of heterogeneous codes, §7.3).
	CyclePNs      float64
	CyclePPrimeNs float64

	// RoundsP / RoundsPPrime / RoundsMerged are the round counts per
	// phase; zero selects d+1.
	RoundsP      int
	RoundsPPrime int
	RoundsMerged int

	// Policy-derived idle insertion, all applied to patch P only:
	// LumpedIdleNs right before the merge (Passive), SpreadIdleNs split
	// evenly before each pre-merge round (Active), IntraIdleNs split
	// inside the final pre-merge round (Active-intra).
	LumpedIdleNs float64
	SpreadIdleNs float64
	IntraIdleNs  float64
}

// Observable indices produced by merge experiments.
const (
	// ObsJoint is X_P·X_P′ (BasisX) or Z_P·Z_P′ (BasisZ).
	ObsJoint = 0
	// ObsSingle is X_P (BasisX) or Z_P (BasisZ).
	ObsSingle = 1
)

// MergeResult is the generated circuit plus bookkeeping metadata.
type MergeResult struct {
	Circuit *circuit.Circuit
	Layout  *Layout
	Spec    MergeSpec

	// RoundsP, RoundsPPrime and RoundsMerged are the resolved counts.
	RoundsP, RoundsPPrime, RoundsMerged int
	// MergeRound is the detector round coordinate of the first merged
	// round (the Lattice Surgery round, dashed line of Fig. 7(b)).
	MergeRound int
}

// WithDefaults returns the spec with its zero defaults resolved: cycle
// times of 0 become the hardware base cycle and round counts of 0 become
// d+1. It validates nothing; Build rejects what is out of range.
func (s MergeSpec) WithDefaults() MergeSpec {
	base := s.HW.CycleNs()
	if s.CyclePNs == 0 {
		s.CyclePNs = base
	}
	if s.CyclePPrimeNs == 0 {
		s.CyclePPrimeNs = base
	}
	if s.RoundsP == 0 {
		s.RoundsP = s.D + 1
	}
	if s.RoundsPPrime == 0 {
		s.RoundsPPrime = s.D + 1
	}
	if s.RoundsMerged == 0 {
		s.RoundsMerged = s.D + 1
	}
	return s
}

// Build generates the experiment circuit. Both patches are prepared
// before either runs, P's rounds (with its spread and intra-round
// idles) precede P′'s, and P's lumped idle comes last, just before the
// buffer is prepared and the patches merge.
func (s MergeSpec) Build() (*MergeResult, error) {
	s = s.WithDefaults()
	b, err := newBuilder(s.D, s.Basis, s.HW, s.P, []float64{s.CyclePNs, s.CyclePPrimeNs},
		s.RoundsP, s.RoundsPPrime, s.RoundsMerged)
	if err != nil {
		return nil, err
	}
	phP, phPPrime := b.patches[0], b.patches[1]
	b.prepare(phP.dataQubits, b.isX)
	b.prepare(phPPrime.dataQubits, b.isX)
	b.standalone(phP, s.RoundsP, s.SpreadIdleNs, 0, s.IntraIdleNs)
	b.standalone(phPPrime, s.RoundsPPrime, 0, 0, 0)
	// The Passive policy's lumped wait right before Lattice Surgery.
	b.idleChannel(s.LumpedIdleNs, phP.dataQubits...)
	// The buffer starts in |0⟩ for XX merges and |+⟩ for ZZ merges, so
	// the extended seam checks stay deterministic across the merge.
	b.prepare(b.buffer, !b.isX)
	pre := max(s.RoundsP, s.RoundsPPrime)
	if err := b.merge(pre, s.RoundsMerged); err != nil {
		return nil, err
	}
	if err := b.readout(b.merged, pre+s.RoundsMerged, ObsSingle); err != nil {
		return nil, err
	}
	return &MergeResult{
		Circuit:      b.c,
		Layout:       b.lay,
		Spec:         s,
		RoundsP:      s.RoundsP,
		RoundsPPrime: s.RoundsPPrime,
		RoundsMerged: s.RoundsMerged,
		MergeRound:   pre,
	}, nil
}
