// Package sweep is the parameter-sweep campaign engine: it expands a
// declarative grid (policies × distances × slacks × error rates × bases)
// into concrete experiment points, deduplicates and caches the expensive
// pipelines behind them (circuit → detector error model → decoder graph,
// keyed by a canonical spec hash, in a size-bounded LRU), and executes
// the points through the parallel Monte Carlo layer of internal/mc with
// per-point deterministic seeds.
//
// Each executed point yields a typed Record (the point's coordinates, the
// shot budget, per-observable error counts with Wilson intervals, and
// wall time) that is streamed to any number of Sinks — JSON-lines and CSV
// writers ship with the package — as points complete. A Manifest makes
// campaigns resumable: finished point keys are journaled, and a rerun of
// the same campaign skips them without recomputation.
//
// Determinism is end to end: a point's seed is derived from the campaign
// seed and the hash of the point's canonical key (seed ← campaign seed +
// spec hash, finalized with SplitMix64), so every record is a pure
// function of (grid, campaign seed, shots) — independent of worker count,
// execution order, interruption, and of which other points share the
// campaign. The worked workflow is documented in EXPERIMENTS.md; the
// per-figure presets in internal/exp are built on this package.
package sweep

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
)

// Grid declares a sweep campaign: the cross product of every axis, run on
// one hardware profile. Zero values select documented defaults, so the
// zero Grid is a valid (single-point) Passive campaign on IBM hardware.
type Grid struct {
	// HW is the hardware profile (zero value: hardware.IBM()).
	HW hardware.Config
	// Policies to sweep (default: Passive, Active).
	Policies []core.Policy
	// Distances are the code distances, odd and ≥ 3 (default: 3).
	Distances []int
	// SlackNs are the synchronization slacks τ in ns (default: 1000).
	SlackNs []float64
	// ErrorRates are circuit-level depolarizing strengths p (default: 1e-3).
	ErrorRates []float64
	// Bases are the lattice-surgery bases (default: BasisX).
	Bases []surface.Basis
	// CyclePNs is patch P's syndrome cycle (0 = the hardware base cycle).
	CyclePNs float64
	// CyclePPrimeNs are patch P′ cycle times, an axis so unequal-cycle
	// studies (paper §7.3) sweep T_P′ (default: one entry, 0 = base cycle).
	CyclePPrimeNs []float64
	// EpsNs is the Hybrid policy's residual-slack tolerance ε.
	EpsNs int64
}

// Point is one concrete experiment of a campaign. All fields are resolved
// (cycle times of 0 have been replaced by the hardware base cycle), so a
// Point is self-describing and its Key is canonical.
type Point struct {
	HW            hardware.Config
	Policy        core.Policy
	D             int
	TauNs         float64
	P             float64
	Basis         surface.Basis
	CyclePNs      float64
	CyclePPrimeNs float64
	EpsNs         int64
}

// withDefaults returns the grid with every empty axis replaced by its
// documented default.
func (g Grid) withDefaults() Grid {
	if g.HW.Name == "" {
		g.HW = hardware.IBM()
	}
	if len(g.Policies) == 0 {
		g.Policies = []core.Policy{core.Passive, core.Active}
	}
	if len(g.Distances) == 0 {
		g.Distances = []int{3}
	}
	if len(g.SlackNs) == 0 {
		g.SlackNs = []float64{1000}
	}
	if len(g.ErrorRates) == 0 {
		g.ErrorRates = []float64{1e-3}
	}
	if len(g.Bases) == 0 {
		g.Bases = []surface.Basis{surface.BasisX}
	}
	if len(g.CyclePPrimeNs) == 0 {
		// One entry at the hardware base cycle — the same default the
		// field documents and the CLI's -cyclepp flag uses.
		g.CyclePPrimeNs = []float64{0}
	}
	return g
}

// maxGridPoints bounds Grid.Points expansion. A campaign of a million
// points is already far past practical shot budgets; the bound exists so
// a hostile or typo'd spec (the service accepts them over the network)
// cannot stall the process inside a combinatorial walk.
const maxGridPoints = 1 << 20

// Points expands the grid into its points in canonical order (policy,
// distance, slack, error rate, basis, T_P′ — slowest to fastest axis).
// The order is part of the engine's contract: records stream out in this
// order regardless of worker count. Coordinates that collapse to the
// same canonical key — an axis listing a value twice, or T_P′ entries
// that resolve to the same cycle (0 and the explicit base) — yield one
// point, keeping record streams and manifest bookkeeping duplicate-free.
func (g Grid) Points() ([]Point, error) {
	g = g.withDefaults()
	cycleP := g.CyclePNs
	if cycleP == 0 {
		cycleP = g.HW.CycleNs()
	}
	for _, d := range g.Distances {
		if d < 3 || d%2 == 0 {
			return nil, fmt.Errorf("sweep: distance %d must be odd and ≥ 3", d)
		}
	}
	for _, p := range g.ErrorRates {
		if p < 0 || p >= 0.5 {
			return nil, fmt.Errorf("sweep: error rate %v out of range [0, 0.5)", p)
		}
	}
	// Bound the expansion before walking the product: grid specs arrive
	// from network job payloads, and a few long axes would otherwise
	// multiply into a CPU-exhausting (if mostly duplicate) walk.
	product := 1
	for _, n := range []int{len(g.Policies), len(g.Distances), len(g.SlackNs),
		len(g.ErrorRates), len(g.Bases), len(g.CyclePPrimeNs)} {
		// Check after every factor so the product cannot overflow.
		if product *= n; product > maxGridPoints {
			return nil, fmt.Errorf("sweep: grid expands to over %d coordinate tuples (limit %d)", product, maxGridPoints)
		}
	}
	var pts []Point
	seen := make(map[string]bool)
	for _, pol := range g.Policies {
		for _, d := range g.Distances {
			for _, tau := range g.SlackNs {
				for _, p := range g.ErrorRates {
					for _, basis := range g.Bases {
						for _, tpp := range g.CyclePPrimeNs {
							if tpp == 0 {
								tpp = g.HW.CycleNs()
							}
							pt := Point{
								HW: g.HW, Policy: pol, D: d, TauNs: tau, P: p,
								Basis: basis, CyclePNs: cycleP, CyclePPrimeNs: tpp,
								EpsNs: g.EpsNs,
							}
							if key := pt.Key(); !seen[key] {
								seen[key] = true
								pts = append(pts, pt)
							}
						}
					}
				}
			}
		}
	}
	return pts, nil
}

// fstr renders a float with the shortest exact representation, so keys
// are stable across runs and machines.
func fstr(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// HardwareKey fingerprints a hardware profile by value, not just name —
// Config.Scaled keeps the platform name while changing every latency.
// The string is part of the stability contract shared by Point.Key and
// SpecKey (see DeriveSeed): its format must never change for an existing
// profile, or every persisted manifest, seed and content-addressed
// result keyed through it silently drifts.
func HardwareKey(c hardware.Config) string {
	return c.Name + "/" + fstr(c.T1Ns) + "/" + fstr(c.T2Ns) + "/" + fstr(c.Gate1Ns) + "/" +
		fstr(c.Gate2Ns) + "/" + fstr(c.ReadoutNs) + "/" + fstr(c.ResetNs)
}

// Key returns the point's canonical identity string. It is the unit of
// resume bookkeeping (Manifest) and the input to Seed, so it includes
// every field that can change the experiment — including the full
// hardware fingerprint.
//
// Stability contract: the rendered string is persisted (manifests), fed
// into seed derivation (DeriveSeed), and used as the content address of
// stored results (internal/service), so its exact byte layout — field
// order, separators, float formatting via fstr — is frozen. New physics
// MUST be expressed as new fields appended with their zero-value
// rendering preserved for old points, never by reformatting existing
// ones. TestKeyAndSeedStability pins the current values; if it fails,
// fix the code, don't update the test.
func (pt Point) Key() string {
	return "policy=" + pt.Policy.String() +
		" d=" + strconv.Itoa(pt.D) +
		" tau=" + fstr(pt.TauNs) +
		" p=" + fstr(pt.P) +
		" basis=" + pt.Basis.String() +
		" hw=" + HardwareKey(pt.HW) +
		" tp=" + fstr(pt.CyclePNs) +
		" tpp=" + fstr(pt.CyclePPrimeNs) +
		" eps=" + strconv.FormatInt(pt.EpsNs, 10)
}

// splitmix64 is the SplitMix64 finalizer, the same mixer the shard-level
// RNG derivation uses (mc.shardSeed).
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// DeriveSeed maps a campaign seed and a canonical key string to a
// decorrelated RNG seed: campaign seed + FNV-1a hash of the key,
// finalized with SplitMix64. It is the single seed-derivation scheme of
// the repository's batch executors — sweep points (Point.Seed) and the
// trace simulator's merge events both use it, so every unit of work owns
// an RNG stream that depends only on (campaign seed, its own key).
//
// Stability contract: DeriveSeed is a frozen pure function. Its output
// feeds every persisted Record.Seed, every manifest-resumed campaign,
// and the content-addressed result store of internal/service, which
// serves cached results under the promise that a re-submitted job would
// recompute bit-identically. Changing the hash (FNV-1a, 64-bit, over the
// raw key bytes), the mixing order (campaign seed + hash, then
// SplitMix64), or the constants would silently invalidate all of them
// while leaving the code "working". TestKeyAndSeedStability pins known
// outputs; treat a failure there as a bug in the change, not the test.
func DeriveSeed(campaignSeed uint64, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return splitmix64(campaignSeed + h.Sum64())
}

// Seed derives the point's base RNG seed via DeriveSeed on the point
// key. Every point therefore owns a decorrelated RNG stream that depends
// only on the campaign seed and the point itself — adding or removing
// other points from a grid never perturbs it (see EXPERIMENTS.md §3 for
// the auditability argument).
func (pt Point) Seed(campaignSeed uint64) uint64 {
	return DeriveSeed(campaignSeed, pt.Key())
}

// SpecForPolicy resolves a synchronization policy into a concrete merge
// experiment: extra rounds and idle insertion per the computed plan.
// cycleP/cyclePPrime of 0 select the hardware base cycle. Infeasible
// plans return ok=false.
func SpecForPolicy(d int, basis surface.Basis, hw hardware.Config, p float64,
	policy core.Policy, tauNs, cyclePNs, cyclePPrimeNs float64, epsNs int64) (surface.MergeSpec, core.Plan, bool) {
	if cyclePNs == 0 {
		cyclePNs = hw.CycleNs()
	}
	if cyclePPrimeNs == 0 {
		cyclePPrimeNs = hw.CycleNs()
	}
	plan := core.Compute(policy, core.Params{
		TPNs:      int64(cyclePNs),
		TPPrimeNs: int64(cyclePPrimeNs),
		TauNs:     int64(tauNs),
		EpsNs:     epsNs,
		MaxZ:      5,
	})
	spec := surface.MergeSpec{
		D: d, Basis: basis, HW: hw, P: p,
		CyclePNs:      cyclePNs,
		CyclePPrimeNs: cyclePPrimeNs,
		RoundsP:       d + 1 + plan.ExtraRoundsP,
		RoundsPPrime:  d + 1 + plan.ExtraRoundsPPrime,
		LumpedIdleNs:  plan.LumpedIdleNs,
		SpreadIdleNs:  plan.SpreadIdleNs,
		IntraIdleNs:   plan.IntraIdleNs,
	}
	return spec, plan, plan.Feasible
}

// Resolve maps the point to its runnable merge spec and synchronization
// plan. ok is false when the policy's equations have no solution for the
// point's cycle times (Extra Rounds and Hybrid can be infeasible).
func (pt Point) Resolve() (surface.MergeSpec, core.Plan, bool) {
	return SpecForPolicy(pt.D, pt.Basis, pt.HW, pt.P, pt.Policy,
		pt.TauNs, pt.CyclePNs, pt.CyclePPrimeNs, pt.EpsNs)
}

// SpecForPair maps one resolved pairwise synchronization (a core.PairPlan
// from SynchronizeK / microarch.PlanSync) onto a runnable two-patch merge
// experiment. It is the trace simulator's bridge from runtime phase state
// to the Monte Carlo pipeline, and keys cleanly into a BuildCache.
//
// MergeSpec can only inject policy idle into its patch "P", so the spec
// is oriented with the directive-heavy patch as P: the early patch (which
// absorbs the Passive/Active/Active-intra idle) for the idle policies,
// the late patch (which runs the m/z extra rounds and spreads the Hybrid
// residual) for the round policies. extraMemRoundsEarly/Late are
// additional pre-merge memory rounds each patch accumulated since its
// previous operation (IDLE trace ops); they extend the corresponding
// patch's pre-merge phase.
func SpecForPair(d int, basis surface.Basis, hw hardware.Config, p float64,
	pp core.PairPlan, earlyCycleNs, lateCycleNs float64,
	extraMemRoundsEarly, extraMemRoundsLate int) surface.MergeSpec {
	spec := surface.MergeSpec{D: d, Basis: basis, HW: hw, P: p}
	roundsEarly := d + 1 + pp.EarlyExtraRounds + extraMemRoundsEarly
	roundsLate := d + 1 + pp.LateExtraRounds + extraMemRoundsLate
	switch pp.Plan.Policy {
	case core.ExtraRounds, core.Hybrid:
		spec.CyclePNs, spec.CyclePPrimeNs = lateCycleNs, earlyCycleNs
		spec.RoundsP, spec.RoundsPPrime = roundsLate, roundsEarly
		spec.SpreadIdleNs = pp.LateIdleNs // Hybrid residual; 0 for Extra Rounds
	default: // Ideal, Passive, Active, Active-intra
		spec.CyclePNs, spec.CyclePPrimeNs = earlyCycleNs, lateCycleNs
		spec.RoundsP, spec.RoundsPPrime = roundsEarly, roundsLate
		switch pp.Plan.Policy {
		case core.Passive:
			spec.LumpedIdleNs = pp.EarlyIdleNs
		case core.Active:
			spec.SpreadIdleNs = pp.EarlyIdleNs
		case core.ActiveIntra:
			spec.IntraIdleNs = pp.EarlyIdleNs
		}
	}
	return spec
}
