// Package qldpc models the logical clock mismatch between qLDPC memory
// blocks and surface code compute patches (paper §3.4.2, Fig. 4(b)).
//
// Bivariate-bicycle qLDPC codes [Bravyi et al. 2024] need 7 CNOT layers
// per syndrome cycle where the surface code needs 4, so a qLDPC memory
// and a surface code patch that start in phase drift apart by the
// cycle-time difference every round. The slack at round r is that
// accumulated drift modulo the surface code cycle — a sawtooth in r whose
// teeth depend only on the platform's gate/readout latencies (it is
// independent of the physical error rate).
//
// ClocksFor derives both cycle durations from a hardware.Config;
// Clocks.SlackAtRound evaluates the sawtooth, and Clocks.RoundsPerWrap
// gives its period. The fig4b runner in internal/exp plots the series;
// see DESIGN.md §2 for where the package sits in the architecture.
package qldpc

import "latticesim/internal/hardware"

// CNOT layer depths of the two codes.
const (
	SurfaceCNOTLayers = 4
	QLDPCCNOTLayers   = 7
)

// Clocks holds the two cycle durations for a platform.
type Clocks struct {
	SurfaceCycleNs float64
	QLDPCCycleNs   float64
}

// ClocksFor derives both cycle times from a hardware configuration: the
// qLDPC cycle adds three extra two-qubit gate layers.
func ClocksFor(hw hardware.Config) Clocks {
	return Clocks{
		SurfaceCycleNs: hw.CycleNs(),
		QLDPCCycleNs:   hw.WithExtraCNOTLayers(QLDPCCNOTLayers - SurfaceCNOTLayers).CycleNs(),
	}
}

// SlackAtRound returns the phase slack after r completed error-correction
// rounds, assuming both codes started round 0 together.
func (c Clocks) SlackAtRound(r int) float64 {
	drift := float64(r) * (c.QLDPCCycleNs - c.SurfaceCycleNs)
	mod := drift - float64(int(drift/c.SurfaceCycleNs))*c.SurfaceCycleNs
	return mod
}

// RoundsPerWrap returns how many rounds pass before the slack wraps
// around the surface cycle (the sawtooth period).
func (c Clocks) RoundsPerWrap() int {
	d := c.QLDPCCycleNs - c.SurfaceCycleNs
	if d <= 0 {
		return 0
	}
	return int(c.SurfaceCycleNs/d) + 1
}
