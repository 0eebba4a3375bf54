package decoder

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"latticesim/internal/dem"
	"latticesim/internal/hardware"
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
// decomposition path by construction). Each unit is decoded twice: the
// first decode fills its memo slot, the second answers from it.
func TestPredecoderSoloAndPairMemosMatch(t *testing.T) {
	g := BuildGraph(buildModel(t, 3, surface.BasisX, 1e-3))
	pre := NewPredecoder(g)
	pd := pre.NewDecoder(NewUnionFind(g))
	uf := NewUnionFind(g)
	check := func(unit string, defects []int, slot *atomic.Pointer[unitMemo]) {
		t.Helper()
		want := uf.Decode(defects)
		for _, pass := range []string{"fill", "memo"} {
			if filled := slot.Load() != nil; filled != (pass == "memo") {
				t.Fatalf("%s %v: memo filled=%v before the %s decode", unit, defects, filled, pass)
			}
			if got := pd.Decode(defects); got != want {
				t.Fatalf("%s %v (%s): predecoded %#x != union-find %#x", unit, defects, pass, got, want)
			}
		}
	}
	for v := 0; v < g.NumDetectors; v++ {
		check("singleton", []int{v}, &pre.solo[v])
	}
	for ei, e := range g.Edges {
		if g.IsBoundary(e.A) || g.IsBoundary(e.B) {
			continue
		}
		a, b := int(e.A), int(e.B)
		if a > b {
			a, b = b, a
		}
		check("pair", []int{a, b}, &pre.pair[ei])
	}
}

// TestPredecoderConcurrentFill shares one fresh Predecoder between
// workers that fill its memo slots concurrently, each walking the same
// syndromes from a different start offset, so they race for the units
// the syndromes share. Every prediction must still be bare union-find's:
// a memo is a pure function of (graph, defects), whichever worker
// publishes it. Under -race this also checks the publication itself;
// make diff repeats the test, because the detector only sees races that
// happen. The graph is a d=5 memory's (144 detectors): the densities
// then straddle the attempt gate, so most syndromes reach the memos,
// and a -race run stays in seconds.
func TestPredecoderConcurrentFill(t *testing.T) {
	res, err := surface.MemorySpec{D: 5, Basis: surface.BasisZ, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(dem.FromCircuit(res.Circuit))
	rng := rand.New(rand.NewPCG(5, 0xF111))
	densities := []float64{0.002, 0.01, 0.05, 0.15}
	syndromes := make([][]int, 2000)
	want := make([]uint64, len(syndromes))
	uf := NewUnionFind(g)
	for i := range syndromes {
		q := densities[i%len(densities)]
		for v := 0; v < g.NumDetectors; v++ {
			if rng.Float64() < q {
				syndromes[i] = append(syndromes[i], v)
			}
		}
		want[i] = uf.Decode(syndromes[i])
	}
	pre := NewPredecoder(g)
	const workers = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		pd := pre.NewDecoder(NewUnionFind(g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range syndromes {
				i := (k + w*len(syndromes)/workers) % len(syndromes)
				if got := pd.Decode(syndromes[i]); got != want[i] {
					t.Errorf("worker %d, syndrome %d (%d defects): predecoded %#x != union-find %#x",
						w, i, len(syndromes[i]), got, want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestPredecodedDecodeAllocFree: once every unit memo a workload needs
// has been filled and the fall-through's scratch has reached its
// high-water mark, Predecoded.Decode does not touch the heap.
func TestPredecodedDecodeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	g, pool := syndromePool(t, 5, 2e-3)
	pd := NewPredecoder(g).NewDecoder(NewUnionFind(g))
	for i := 0; i < 2; i++ {
		for _, defects := range pool {
			pd.Decode(defects)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(len(pool)*3, func() {
		pd.Decode(pool[i%len(pool)])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Predecoded.Decode allocates %.2f allocs/op, want 0", avg)
	}
	if shots, hits := pd.Stats(); hits == 0 || hits == shots {
		t.Fatalf("predecoder hit %d/%d shots: the pool must exercise both the memo and the fall-through path", hits, shots)
	}
}
