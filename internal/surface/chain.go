package surface

import (
	"fmt"

	"latticesim/internal/circuit"
	"latticesim/internal/hardware"
	"latticesim/internal/noise"
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

func (s *ChainSpec) defaults() error {
	if s.D < 3 || s.D%2 == 0 {
		return fmt.Errorf("surface: distance %d must be odd and ≥ 3", s.D)
	}
	if s.K < 2 {
		return fmt.Errorf("surface: chain needs at least 2 patches, got %d", s.K)
	}
	if s.P < 0 || s.P >= 0.5 {
		return fmt.Errorf("surface: depolarizing strength %v out of range", s.P)
	}
	norm := func(xs []float64) []float64 {
		out := make([]float64, s.K)
		copy(out, xs)
		return out
	}
	s.LumpedIdleNs = norm(s.LumpedIdleNs)
	s.SpreadIdleNs = norm(s.SpreadIdleNs)
	cycles := make([]float64, s.K)
	copy(cycles, s.CycleNs)
	base := s.HW.CycleNs()
	for i := range cycles {
		if cycles[i] == 0 {
			cycles[i] = base
		}
		if cycles[i] < base {
			return fmt.Errorf("surface: patch %d cycle %v below hardware base %v", i, cycles[i], base)
		}
	}
	s.CycleNs = cycles
	rounds := make([]int, s.K)
	copy(rounds, s.Rounds)
	for i := range rounds {
		if rounds[i] == 0 {
			rounds[i] = s.D + 1
		}
		if rounds[i] < 1 {
			return fmt.Errorf("surface: patch %d round count %d invalid", i, rounds[i])
		}
	}
	s.Rounds = rounds
	if s.RoundsMerged == 0 {
		s.RoundsMerged = s.D + 1
	}
	return nil
}

// Build generates the chain experiment circuit.
func (s ChainSpec) Build() (*ChainResult, error) {
	if err := s.defaults(); err != nil {
		return nil, err
	}
	d, k := s.D, s.K
	basisIsX := s.Basis == BasisX
	span := k*(d+1) - 1 // K patches of width d plus K-1 buffer lines

	var lay *Layout
	var regions []Region
	var regMerged Region
	if basisIsX {
		lay = NewLayout(d, span)
		for i := 0; i < k; i++ {
			c0 := i * (d + 1)
			regions = append(regions, Region{0, c0, d, c0 + d})
		}
		regMerged = Region{0, 0, d, span}
	} else {
		lay = NewLayout(span, d)
		for i := 0; i < k; i++ {
			r0 := i * (d + 1)
			regions = append(regions, Region{r0, 0, r0 + d, d})
		}
		regMerged = Region{0, 0, span, d}
	}

	var phases []*patchPhase
	var standalone [][]Plaquette
	for i, rg := range regions {
		plaqs, err := lay.PlaquettesFor(rg)
		if err != nil {
			return nil, err
		}
		standalone = append(standalone, plaqs)
		phases = append(phases, newPhase(fmt.Sprintf("P%d", i), lay, rg, plaqs, s.CycleNs[i]))
	}
	plaqsMerged, err := lay.PlaquettesFor(regMerged)
	if err != nil {
		return nil, err
	}
	changes := classify(plaqsMerged, standalone...)
	mergedCycle := s.CycleNs[0]
	for _, c := range s.CycleNs[1:] {
		if c > mergedCycle {
			mergedCycle = c
		}
	}
	phM := newPhase("merged", lay, regMerged, plaqsMerged, mergedCycle)

	b := &builder{
		spec:        MergeSpec{D: d, HW: s.HW, P: s.P, Basis: s.Basis},
		lay:         lay,
		c:           circuit.New(),
		nm:          noise.Model{P: s.P, T1Ns: s.HW.T1Ns, T2Ns: s.HW.T2Ns},
		lastMeas:    make(map[int32]int32),
		lastMeasSet: make(map[int32]struct{}),
		started:     make(map[int32]bool),
	}
	c := b.c
	for q := int32(0); q < int32(lay.NumQubits()); q++ {
		x, y := lay.Coords(q)
		c.QubitCoords(q, x, y)
	}

	// Patch initialization and pre-merge rounds, with per-patch slack.
	maxPre := 0
	for i, ph := range phases {
		c.Reset(ph.dataQubits...)
		c.XError(s.P, ph.dataQubits...)
		if basisIsX {
			c.H(ph.dataQubits...)
			c.Depolarize1(s.P, ph.dataQubits...)
		}
		b.startAncillas(ph)
		perRound := s.SpreadIdleNs[i] / float64(s.Rounds[i])
		for r := 0; r < s.Rounds[i]; r++ {
			o := roundOpts{mode: detSteady, round: r, basisIsX: basisIsX, preIdleNs: perRound}
			if r == 0 {
				o.mode = detFirstStandalone
			}
			b.round(ph, o)
		}
		if s.LumpedIdleNs[i] > 0 {
			b.idleChannel(s.LumpedIdleNs[i], ph.dataQubits...)
		}
		if s.Rounds[i] > maxPre {
			maxPre = s.Rounds[i]
		}
	}

	// Buffer lines (|0⟩ for XX chains, |+⟩ for ZZ chains).
	var buffer []int32
	for i := 0; i < k-1; i++ {
		line := i*(d+1) + d
		for j := 0; j < d; j++ {
			if basisIsX {
				buffer = append(buffer, lay.Data(j, line))
			} else {
				buffer = append(buffer, lay.Data(line, j))
			}
		}
	}
	c.Reset(buffer...)
	c.XError(s.P, buffer...)
	if !basisIsX {
		c.H(buffer...)
		c.Depolarize1(s.P, buffer...)
	}

	// Merged rounds: new seam plaquettes feed their seam's observable.
	seamOf := func(pl Plaquette) int {
		pos := pl.J
		if !basisIsX {
			pos = pl.I
		}
		if (pos-d)%(d+1) == 0 {
			return (pos - d) / (d + 1)
		}
		return (pos - d - 1) / (d + 1)
	}
	seamRecs := make([][]int32, k-1)
	b.startAncillas(phM)
	for r := 0; r < s.RoundsMerged; r++ {
		o := roundOpts{mode: detSteady, round: maxPre + r, basisIsX: basisIsX}
		if r == 0 {
			o.mode = detFirstMerged
			o.changes = changes
			o.onNewPlaquette = func(pl Plaquette, rec int32) {
				seam := seamOf(pl)
				seamRecs[seam] = append(seamRecs[seam], rec)
			}
		}
		b.round(phM, o)
	}
	for seam, recs := range seamRecs {
		if len(recs) == 0 {
			return nil, fmt.Errorf("surface: seam %d produced no joint observable records", seam)
		}
		c.Observable(seam, recs...)
	}

	// Transversal readout.
	allData := phM.dataQubits
	if basisIsX {
		c.H(allData...)
		c.Depolarize1(s.P, allData...)
	}
	c.XError(s.P, allData...)
	dataRecs := c.Measure(allData...)
	recOf := make(map[int32]int32, len(allData))
	for i, q := range allData {
		recOf[q] = dataRecs[i]
	}
	finalRound := maxPre + s.RoundsMerged
	for _, pl := range plaqsMerged {
		if pl.IsX != basisIsX {
			continue
		}
		recs := []int32{b.lastMeas[pl.Anc]}
		for _, q := range pl.Corners {
			if q >= 0 {
				recs = append(recs, recOf[q])
			}
		}
		coords := []float64{float64(pl.J), float64(pl.I), float64(finalRound), checkCoord(pl.IsX)}
		c.Detector(coords, recs...)
	}

	var singleRecs []int32
	if basisIsX {
		for r := 0; r < d; r++ {
			singleRecs = append(singleRecs, recOf[lay.Data(r, 0)])
		}
	} else {
		for cc := 0; cc < d; cc++ {
			singleRecs = append(singleRecs, recOf[lay.Data(0, cc)])
		}
	}
	c.Observable(k-1, singleRecs...)

	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("surface: generated chain circuit invalid: %w", err)
	}
	return &ChainResult{Circuit: c, Layout: lay, K: k, MergeRound: maxPre}, nil
}
