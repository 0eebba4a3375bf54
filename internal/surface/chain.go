package surface

import (
	"fmt"

	"latticesim/internal/circuit"
	"latticesim/internal/hardware"
)

// ChainSpec configures a k-patch Lattice Surgery experiment: K patches in
// a row merge simultaneously through K−1 buffer lines into one long
// patch. This is the multi-patch primitive behind patch movement and
// long-range CNOTs (§2.2.1–2.2.2: the routing ancilla is exactly such a
// merged chain) and the setting for k-patch synchronization (§4.3): every
// patch can carry its own cycle time, pre-merge round count and slack
// idles, as produced by core.SynchronizeK.
type ChainSpec struct {
	// D is the code distance (odd, ≥ 3).
	D int
	// K is the number of patches (≥ 2).
	K int
	// Basis selects the merge type: BasisX measures the K−1 joint
	// X_i·X_{i+1} observables, BasisZ the Z_i·Z_{i+1} ones.
	Basis Basis
	HW    hardware.Config
	P     float64

	// CycleNs[i] is patch i's syndrome cycle (zero entries or a nil slice
	// select the hardware base cycle).
	CycleNs []float64
	// Rounds[i] is patch i's pre-merge round count (zero → d+1).
	Rounds []int
	// LumpedIdleNs[i] / SpreadIdleNs[i] are per-patch slack idles
	// (Passive / Active style), typically from a k-patch plan.
	LumpedIdleNs []float64
	SpreadIdleNs []float64
	// RoundsMerged is the merged-phase round count (zero → d+1).
	RoundsMerged int
}

// ChainResult is the generated circuit plus metadata. Observables
// 0..K-2 are the joint seam observables (X_i·X_{i+1} or Z_i·Z_{i+1});
// observable K-1 is patch 0's single logical.
type ChainResult struct {
	Circuit    *circuit.Circuit
	Layout     *Layout
	K          int
	MergeRound int
}

// defaults sizes every per-patch slice to K and resolves zero cycles to
// the hardware base cycle and zero round counts to d+1.
func (s *ChainSpec) defaults() error {
	if s.K < 2 {
		return fmt.Errorf("surface: chain needs at least 2 patches, got %d", s.K)
	}
	resize := func(xs []float64) []float64 {
		out := make([]float64, s.K)
		copy(out, xs)
		return out
	}
	s.LumpedIdleNs, s.SpreadIdleNs, s.CycleNs = resize(s.LumpedIdleNs), resize(s.SpreadIdleNs), resize(s.CycleNs)
	rounds := make([]int, s.K)
	copy(rounds, s.Rounds)
	s.Rounds = rounds
	for i := range rounds {
		if s.CycleNs[i] == 0 {
			s.CycleNs[i] = s.HW.CycleNs()
		}
		if rounds[i] == 0 {
			rounds[i] = s.D + 1
		}
	}
	if s.RoundsMerged == 0 {
		s.RoundsMerged = s.D + 1
	}
	return nil
}

// Build generates the chain experiment circuit. Each patch in turn is
// prepared just before its own rounds and then takes its lumped idle;
// the buffer lines are prepared last, and all K patches merge at once.
func (s ChainSpec) Build() (*ChainResult, error) {
	if err := s.defaults(); err != nil {
		return nil, err
	}
	b, err := newBuilder(s.D, s.Basis, s.HW, s.P, s.CycleNs, append(s.Rounds, s.RoundsMerged)...)
	if err != nil {
		return nil, err
	}
	pre := 0
	for i, ph := range b.patches {
		b.prepare(ph.dataQubits, b.isX)
		b.standalone(ph, s.Rounds[i], s.SpreadIdleNs[i], 0, 0)
		b.idleChannel(s.LumpedIdleNs[i], ph.dataQubits...)
		pre = max(pre, s.Rounds[i])
	}
	// Buffer lines start in |0⟩ for XX chains and |+⟩ for ZZ chains.
	b.prepare(b.buffer, !b.isX)
	if err := b.merge(pre, s.RoundsMerged); err != nil {
		return nil, err
	}
	if err := b.readout(b.merged, pre+s.RoundsMerged, s.K-1); err != nil {
		return nil, err
	}
	return &ChainResult{Circuit: b.c, Layout: b.lay, K: s.K, MergeRound: pre}, nil
}
