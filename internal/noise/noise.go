// Package noise implements the error models of the paper's methodology
// (§6): circuit-level depolarizing noise and the Pauli-twirl
// approximation of idling (decoherence) errors.
package noise

import "math"

// IdlePauli returns the Pauli-twirled idle channel for a qubit idling
// tauNs nanoseconds with the given coherence times:
//
//	px = py = (1 − e^(−τ/T1)) / 4
//	pz = (1 − e^(−τ/T2)) / 2 − px
//
// (paper §6, after Ghosh et al. and Tomita–Svore). pz is clamped at 0 for
// the T2-limited-by-T1 regime.
func IdlePauli(tauNs, t1Ns, t2Ns float64) (px, py, pz float64) {
	if tauNs <= 0 {
		return 0, 0, 0
	}
	px = (1 - math.Exp(-tauNs/t1Ns)) / 4
	py = px
	pz = (1-math.Exp(-tauNs/t2Ns))/2 - px
	if pz < 0 {
		pz = 0
	}
	return px, py, pz
}

// Model bundles the circuit-level noise strength with the platform
// coherence times used for idle annotations.
type Model struct {
	// P is the depolarizing probability applied after every gate, before
	// every measurement and after every reset (circuit-level noise).
	P float64
	// T1Ns and T2Ns drive the idle error channels.
	T1Ns, T2Ns float64
}

// IdleChannel returns the twirled channel for an idle of tauNs.
func (m Model) IdleChannel(tauNs float64) (px, py, pz float64) {
	return IdlePauli(tauNs, m.T1Ns, m.T2Ns)
}
