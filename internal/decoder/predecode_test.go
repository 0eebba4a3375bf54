package decoder

import (
	"math/rand/v2"
	"testing"

	"latticesim/internal/surface"
)

// TestPredecodedMatchesUnionFind is the predecoder's defining property:
// for every defect set, the predecoder-fronted decoder must return
// exactly the prediction of its union-find fall-through alone. Random
// syndromes are drawn at densities spanning "almost always decomposes"
// to "almost never decomposes"; a mismatch is minimized by the shrinker
// before reporting, so a red run names the smallest syndrome that still
// diverges.
func TestPredecodedMatchesUnionFind(t *testing.T) {
	trials := 4000
	if testing.Short() {
		trials = 800
	}
	for _, d := range []int{3, 5} {
		g := BuildGraph(buildModel(t, d, surface.BasisZ, 1e-3))
		pre := NewPredecoder(g)
		pd := pre.NewDecoder(NewUnionFind(g))
		uf := NewUnionFind(g)
		rng := rand.New(rand.NewPCG(uint64(d), 0xBEEF))
		densities := []float64{0.002, 0.01, 0.05, 0.15}
		var defects []int
		for trial := 0; trial < trials; trial++ {
			q := densities[trial%len(densities)]
			defects = defects[:0]
			for v := 0; v < g.NumDetectors; v++ {
				if rng.Float64() < q {
					defects = append(defects, v)
				}
			}
			got, want := pd.Decode(defects), uf.Decode(defects)
			if got != want {
				minimal := shrinkMismatch(t, pre, g, defects)
				t.Fatalf("d=%d trial %d (density %g): predecoded %#x != union-find %#x on %d defects; minimized repro (%d defects): %v",
					d, trial, q, got, want, len(defects), len(minimal), minimal)
			}
		}
		shots, hits := pd.Stats()
		if shots != trials {
			t.Fatalf("d=%d: predecoder saw %d shots, want %d", d, shots, trials)
		}
		if hits == 0 || hits == shots {
			t.Fatalf("d=%d: predecoder hit %d/%d shots — the density sweep must exercise both the decomposition and the fall-through path", d, hits, shots)
		}
	}
}

// shrinkMismatch delta-debugs a diverging defect set: it repeatedly
// removes any single defect whose removal preserves the divergence,
// until the set is 1-minimal. Fresh decoders per probe keep the check
// independent of accumulated state.
func shrinkMismatch(t *testing.T, pre *Predecoder, g *Graph, defects []int) []int {
	t.Helper()
	diverges := func(ds []int) bool {
		pd := pre.NewDecoder(NewUnionFind(g))
		return pd.Decode(ds) != NewUnionFind(g).Decode(ds)
	}
	cur := append([]int(nil), defects...)
	for {
		shrunk := false
		for i := 0; i < len(cur); i++ {
			cand := make([]int, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if diverges(cand) {
				cur = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// TestPredecoderSoloAndPairMemosMatch checks the memo tables directly:
// every singleton and every adjacent pair must decode through the
// predecoder to the exact union-find answer (these all take the
// decomposition path by construction).
func TestPredecoderSoloAndPairMemosMatch(t *testing.T) {
	g := BuildGraph(buildModel(t, 3, surface.BasisX, 1e-3))
	pre := NewPredecoder(g)
	pd := pre.NewDecoder(NewUnionFind(g))
	uf := NewUnionFind(g)
	for v := 0; v < g.NumDetectors; v++ {
		if got, want := pd.Decode([]int{v}), uf.Decode([]int{v}); got != want {
			t.Fatalf("singleton %d: predecoded %#x != union-find %#x", v, got, want)
		}
	}
	for _, e := range g.Edges {
		if g.IsBoundary(e.A) || g.IsBoundary(e.B) {
			continue
		}
		a, b := int(e.A), int(e.B)
		if a > b {
			a, b = b, a
		}
		pair := []int{a, b}
		if got, want := pd.Decode(pair), uf.Decode(pair); got != want {
			t.Fatalf("pair (%d,%d): predecoded %#x != union-find %#x", a, b, got, want)
		}
	}
}
