// Package core implements the paper's primary contribution: the
// synchronization policies for logical qubit patches (§4).
//
// Two patches P (leading) and P′ (lagging) whose syndrome-generation
// cycles are out of phase by a slack τ must be brought into phase before
// a Lattice Surgery operation can merge them. The policies are:
//
//   - Passive: P idles for the whole slack immediately before the merge.
//   - Active: the slack is split into equal chunks inserted before every
//     pre-merge syndrome round of P.
//   - Active-intra: the slack is distributed inside P's final pre-merge
//     round (hits measure qubits too, §4.1.3).
//   - Extra Rounds: when T_P ≠ T_P′, P runs m and P′ runs n additional
//     rounds so that n·T_P′ = m·T_P + τ (Eq. 1) with no idling at all.
//   - Hybrid: P runs z ≥ 1 extra rounds chosen so the residual slack is
//     below a tolerance ε (Eq. 2); the residual is distributed actively.
package core

import "fmt"

// Policy identifies a synchronization policy.
type Policy int

// The synchronization policies of §4 plus the no-synchronization ideal.
const (
	// Ideal is the hypothetical baseline that needs no synchronization.
	Ideal Policy = iota
	Passive
	Active
	ActiveIntra
	ExtraRounds
	Hybrid
)

var policyNames = [...]string{"Ideal", "Passive", "Active", "Active-intra", "ExtraRounds", "Hybrid"}

// String returns the policy name as used in the paper.
func (p Policy) String() string {
	if p < 0 || int(p) >= len(policyNames) {
		return "Policy(?)"
	}
	return policyNames[p]
}

// ParsePolicy converts a policy name (case-sensitive, as printed by
// String) back into a Policy.
func ParsePolicy(s string) (Policy, bool) {
	for i, n := range policyNames {
		if n == s {
			return Policy(i), true
		}
	}
	return 0, false
}

// MarshalText encodes the policy as its paper name, so policies embed in
// JSON documents (and map keys) as "Passive" rather than an opaque
// integer. Out-of-range values are an error, never a silent "Policy(?)".
func (p Policy) MarshalText() ([]byte, error) {
	if p < 0 || int(p) >= len(policyNames) {
		return nil, fmt.Errorf("core: cannot marshal out-of-range policy %d", int(p))
	}
	return []byte(policyNames[p]), nil
}

// UnmarshalText decodes a policy name via ParsePolicy, making Policy a
// round-trip JSON citizen for every machine-readable result schema.
func (p *Policy) UnmarshalText(text []byte) error {
	pol, ok := ParsePolicy(string(text))
	if !ok {
		return fmt.Errorf("core: unknown policy %q", string(text))
	}
	*p = pol
	return nil
}

// Params describes one two-patch synchronization problem. All durations
// are integer nanoseconds (the paper's Diophantine formulation needs
// exact integer arithmetic).
type Params struct {
	// TPNs and TPPrimeNs are the syndrome cycle times of the leading
	// patch P and the lagging patch P′.
	TPNs, TPPrimeNs int64
	// TauNs is the synchronization slack (0 ≤ τ < T_P′).
	TauNs int64
	// EpsNs is the Hybrid policy's slack tolerance ε (ignored otherwise).
	EpsNs int64
	// MaxZ bounds the Hybrid extra rounds (paper default 5); 0 means
	// unbounded.
	MaxZ int
	// MaxM bounds the Extra Rounds search (default 100000).
	MaxM int
}

// Plan is the concrete synchronization schedule a policy produces.
type Plan struct {
	Policy Policy
	// LumpedIdleNs idles P once, right before the merge round.
	LumpedIdleNs float64
	// SpreadIdleNs is distributed equally before every pre-merge round of P.
	SpreadIdleNs float64
	// IntraIdleNs is distributed inside P's final pre-merge round.
	IntraIdleNs float64
	// ExtraRoundsP and ExtraRoundsPPrime are additional syndrome rounds
	// run by P and P′ before the merge.
	ExtraRoundsP      int
	ExtraRoundsPPrime int
	// Feasible reports whether the policy could satisfy its constraints
	// (Extra Rounds and Hybrid can be infeasible).
	Feasible bool
}

// TotalIdleNs returns the total idle time the plan injects into P.
func (p Plan) TotalIdleNs() float64 {
	return p.LumpedIdleNs + p.SpreadIdleNs + p.IntraIdleNs
}

// Compute derives the synchronization plan for the given policy. The
// returned plan is always structurally valid; Feasible is false when the
// policy's equations have no solution under the bounds, in which case the
// caller should fall back to Active or Passive (§5's runtime policy
// selection does exactly that).
func Compute(policy Policy, prm Params) Plan {
	plan := Plan{Policy: policy, Feasible: true}
	tau := float64(prm.TauNs)
	switch policy {
	case Ideal:
	case Passive:
		plan.LumpedIdleNs = tau
	case Active:
		plan.SpreadIdleNs = tau
	case ActiveIntra:
		plan.IntraIdleNs = tau
	case ExtraRounds:
		m, n, ok := SolveExtraRounds(prm.TPNs, prm.TPPrimeNs, prm.TauNs, prm.MaxM)
		if !ok {
			plan.Feasible = false
			return plan
		}
		plan.ExtraRoundsP = m
		plan.ExtraRoundsPPrime = n
	case Hybrid:
		z, n, residual, ok := SolveHybrid(prm.TPNs, prm.TPPrimeNs, prm.TauNs, prm.EpsNs, prm.MaxZ)
		if !ok {
			plan.Feasible = false
			return plan
		}
		plan.ExtraRoundsP = z
		plan.ExtraRoundsPPrime = n
		plan.SpreadIdleNs = float64(residual)
	}
	return plan
}

// Select implements the runtime policy choice of §5: Hybrid when its
// equation has a solution within the tolerance, otherwise Active.
func Select(prm Params) Plan {
	if prm.TPNs != prm.TPPrimeNs {
		if plan := Compute(Hybrid, prm); plan.Feasible {
			return plan
		}
	}
	return Compute(Active, prm)
}
