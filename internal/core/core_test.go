package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFig10ExtraRounds asserts the exact extra-round counts of Fig. 10.
func TestFig10ExtraRounds(t *testing.T) {
	cases := []struct {
		tpPrime, tau int64
		wantM        int
		possible     bool
	}{
		{1200, 500, 0, false},
		{1200, 1000, 5, true},
		{1150, 500, 11, true},
		{1150, 1000, 22, true},
		{1325, 500, 26, true},
		{1325, 1000, 52, true},
		{1725, 500, 34, true},
		{1725, 1000, 68, true},
	}
	for _, c := range cases {
		m, n, ok := SolveExtraRounds(1000, c.tpPrime, c.tau, 0)
		if ok != c.possible {
			t.Errorf("T'=%d τ=%d: feasible=%v, want %v", c.tpPrime, c.tau, ok, c.possible)
			continue
		}
		if !ok {
			continue
		}
		if m != c.wantM {
			t.Errorf("T'=%d τ=%d: m=%d, want %d", c.tpPrime, c.tau, m, c.wantM)
		}
		// Eq. 1 must hold exactly.
		if int64(n)*c.tpPrime != int64(m)*1000+c.tau {
			t.Errorf("T'=%d τ=%d: n·T'=%d ≠ m·T+τ=%d", c.tpPrime, c.tau, int64(n)*c.tpPrime, int64(m)*1000+c.tau)
		}
	}
}

// TestTable2Hybrid asserts the Hybrid solution of Table 2: T_P=1000,
// T_P'=1325, τ=1000, ε=400 → 4 extra rounds, 300ns residual idle.
func TestTable2Hybrid(t *testing.T) {
	z, n, residual, ok := SolveHybrid(1000, 1325, 1000, 400, 0)
	if !ok {
		t.Fatal("expected a solution")
	}
	if z != 4 || residual != 300 {
		t.Fatalf("z=%d residual=%d, want z=4 residual=300", z, residual)
	}
	if n != 4 { // ⌈5000/1325⌉
		t.Fatalf("n=%d, want 4", n)
	}
}

// TestSection42Example asserts the in-text example of §4.2: τ=800,
// ε=200 → 3 extra rounds, 175ns residual ("reduce the idling duration to
// 175ns from 800ns and the number of rounds from 31 to 3").
func TestSection42Example(t *testing.T) {
	z, _, residual, ok := SolveHybrid(1000, 1325, 800, 200, 0)
	if !ok || z != 3 || residual != 175 {
		t.Fatalf("got z=%d residual=%d ok=%v, want z=3 residual=175", z, residual, ok)
	}
}

// TestTable5NeutralAtom asserts the Hybrid extra-round counts of Table 5
// (QuEra: T_P=2ms, T_P′∈{2.2,2.4,2.6}ms; the table reports the worst case
// over the cycle-time set).
func TestTable5NeutralAtom(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	tpPrimes := []int64{ms(2.2), ms(2.4), ms(2.6)}
	cases := []struct {
		tauMs float64
		epsMs float64
		want  int
	}{
		{0.2, 0.1, 9},
		{0.6, 0.1, 3},
		{1.0, 0.1, 6},
		{1.6, 0.1, 8},
		{2.0, 0.1, 12},
		{0.2, 0.4, 5},
		{0.6, 0.4, 3},
		{1.0, 0.4, 5},
		{1.6, 0.4, 8},
		{2.0, 0.4, 10},
	}
	for _, c := range cases {
		worst := 0
		for _, tp := range tpPrimes {
			z, _, _, ok := SolveHybrid(ms(2.0), tp, int64(c.tauMs*1e6), int64(c.epsMs*1e6), 0)
			if ok && z > worst {
				worst = z
			}
		}
		if worst != c.want {
			t.Errorf("τ=%.1fms ε=%.1fms: worst z=%d, want %d", c.tauMs, c.epsMs, worst, c.want)
		}
	}
}

// TestFig11HybridBounds: with the paper's bounds (z ≤ 5), solutions in
// the τ×T_P′ grid always satisfy Eq. 2 with residual < ε, and larger ε
// admits at least as many solutions.
func TestFig11HybridBounds(t *testing.T) {
	solutions100, solutions400 := 0, 0
	for tpPrime := int64(1010); tpPrime <= 1700; tpPrime += 10 {
		for tau := int64(200); tau <= 1400; tau += 50 {
			if z, _, res, ok := SolveHybrid(1000, tpPrime, tau, 100, 5); ok {
				solutions100++
				if z < 1 || z > 5 || res >= 100 {
					t.Fatalf("ε=100: invalid solution z=%d res=%d", z, res)
				}
			}
			if z, _, res, ok := SolveHybrid(1000, tpPrime, tau, 400, 5); ok {
				solutions400++
				if z < 1 || z > 5 || res >= 400 {
					t.Fatalf("ε=400: invalid solution z=%d res=%d", z, res)
				}
			}
		}
	}
	if solutions400 <= solutions100 {
		t.Fatalf("ε=400 admits %d solutions vs %d for ε=100; expected more", solutions400, solutions100)
	}
	if solutions100 == 0 {
		t.Fatal("ε=100 found no solutions at all")
	}
}

// TestSolveExtraRoundsProperties: whenever a solution is reported, Eq. 1
// holds exactly and m is minimal.
func TestSolveExtraRoundsProperties(t *testing.T) {
	f := func(tpRaw, tpPrimeRaw uint16, tauRaw uint16) bool {
		tp := int64(tpRaw%2000) + 100
		tpPrime := int64(tpPrimeRaw%2000) + 100
		tau := int64(tauRaw % 2000)
		m, n, ok := SolveExtraRounds(tp, tpPrime, tau, 5000)
		if !ok {
			return true
		}
		if int64(n)*tpPrime != int64(m)*tp+tau {
			return false
		}
		for mm := 0; mm < m; mm++ {
			if (int64(mm)*tp+tau)%tpPrime == 0 {
				return false // not minimal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveHybridProperties: solutions satisfy Eq. 2 with minimal z ≥ 1.
func TestSolveHybridProperties(t *testing.T) {
	f := func(tpRaw, tpPrimeRaw, tauRaw uint16, epsRaw uint8) bool {
		tp := int64(tpRaw%2000) + 100
		tpPrime := int64(tpPrimeRaw%2000) + 100
		tau := int64(tauRaw % 2000)
		eps := int64(epsRaw)%400 + 1
		z, n, res, ok := SolveHybrid(tp, tpPrime, tau, eps, 200)
		if !ok {
			return true
		}
		if z < 1 || res < 0 || res >= eps {
			return false
		}
		total := int64(z)*tp + tau
		if int64(n)*tpPrime-total != res {
			return false
		}
		for zz := 1; zz < z; zz++ {
			tt := int64(zz)*tp + tau
			k := (tt + tpPrime - 1) / tpPrime
			if k*tpPrime-tt < eps {
				return false // not minimal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanConservation: policies conserve the synchronization slack — the
// total idle injected by Passive, Active and Active-intra equals τ.
func TestPlanConservation(t *testing.T) {
	prm := Params{TPNs: 1000, TPPrimeNs: 1000, TauNs: 730}
	for _, pol := range []Policy{Passive, Active, ActiveIntra} {
		plan := Compute(pol, prm)
		if !plan.Feasible {
			t.Fatalf("%v infeasible", pol)
		}
		if got := plan.TotalIdleNs(); got != 730 {
			t.Errorf("%v: total idle %v, want 730", pol, got)
		}
	}
	if plan := Compute(Ideal, prm); plan.TotalIdleNs() != 0 {
		t.Error("Ideal plan must not idle")
	}
}

// TestEqualCyclesForbidExtraRounds: §4.1.4 — with T_P = T_P′, Extra
// Rounds and Hybrid are impossible.
func TestEqualCyclesForbidExtraRounds(t *testing.T) {
	prm := Params{TPNs: 1000, TPPrimeNs: 1000, TauNs: 500, EpsNs: 400}
	if plan := Compute(ExtraRounds, prm); plan.Feasible {
		t.Error("ExtraRounds must be infeasible for equal cycle times")
	}
	if plan := Compute(Hybrid, prm); plan.Feasible {
		t.Error("Hybrid must be infeasible for equal cycle times")
	}
	// Runtime selection must fall back to Active.
	if plan := Select(prm); plan.Policy != Active {
		t.Errorf("Select fell back to %v, want Active", plan.Policy)
	}
}

// TestPairPlanAlignment: every policy's resolved pair plan aligns the two
// patches exactly at the merge point.
func TestPairPlanAlignment(t *testing.T) {
	a := PatchState{ID: 0, CycleNs: 1325, ElapsedNs: 200}
	b := PatchState{ID: 1, CycleNs: 1000, ElapsedNs: 900}
	for _, pol := range []Policy{Passive, Active, ActiveIntra, ExtraRounds, Hybrid} {
		pp := PlanPair(a, b, pol, 400, 0)
		early, late := a, b
		if pp.Early != a.ID {
			early, late = b, a
		}
		if d := pp.AlignedNs(early.CycleNs, late.CycleNs); d != 0 {
			t.Errorf("%v: misaligned by %dns (plan %+v)", pol, d, pp)
		}
	}
}

// TestSynchronizeKAlignsAll: the k-patch planner aligns every patch with
// the slowest one, for a spread of random phase configurations.
func TestSynchronizeKAlignsAll(t *testing.T) {
	f := func(phases []uint16) bool {
		if len(phases) < 2 {
			return true
		}
		if len(phases) > 50 {
			phases = phases[:50]
		}
		cycles := []int64{1000, 1150, 1325, 1725}
		patches := make([]PatchState, len(phases))
		for i, ph := range phases {
			cyc := cycles[i%len(cycles)]
			patches[i] = PatchState{ID: i, CycleNs: cyc, ElapsedNs: int64(ph) % cyc}
		}
		plans := SynchronizeK(patches, Hybrid, 400, 0)
		if len(plans) != len(patches)-1 {
			return false
		}
		for _, pp := range plans {
			early, late := patches[pp.Early], patches[pp.Late]
			if pp.AlignedNs(early.CycleNs, late.CycleNs) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, pol := range []Policy{Ideal, Passive, Active, ActiveIntra, ExtraRounds, Hybrid} {
		name := pol.String()
		back, ok := ParsePolicy(name)
		if !ok || back != pol {
			t.Errorf("round trip failed for %v (%q)", pol, name)
		}
	}
	if _, ok := ParsePolicy("nope"); ok {
		t.Error("ParsePolicy accepted garbage")
	}
}
