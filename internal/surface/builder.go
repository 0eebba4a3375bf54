package surface

import (
	"fmt"
	"sort"

	"latticesim/internal/circuit"
	"latticesim/internal/hardware"
	"latticesim/internal/noise"
)

// builder accumulates one experiment circuit over a row layout: k d×d
// patches side by side, along columns for BasisX and along rows for
// BasisZ, with one buffer line between neighbours. A memory is k = 1, a
// merge k = 2 and a chain any k ≥ 2. The three Build methods are recipes
// over the builder's steps — prepare, standalone, merge and readout —
// and the order in which a recipe calls them fixes the circuit's bytes.
type builder struct {
	d   int
	p   float64
	hw  hardware.Config
	isX bool // BasisX: data in |+⟩ and a column-wise row
	lay *Layout
	c   *circuit.Circuit
	nm  noise.Model

	patches []*patchPhase // the standalone patches, in row order
	merged  *patchPhase   // the whole row once merged (nil when k = 1)
	buffer  []int32       // the buffer lines' data qubits, line by line

	lastMeas map[int32]int32 // ancilla qubit -> most recent record
}

// patchPhase bundles the plaquettes, qubits and timing of one patch (or
// of the merged row) during one phase of the experiment.
type patchPhase struct {
	plaqs         []Plaquette
	dataQubits    []int32
	ancs, xAncs   []int32 // all ancillas; the X-type ones
	participation map[int32]int
	cycleNs       float64
}

// newBuilder validates what the three experiments share — an odd
// distance of at least 3, a depolarizing strength in [0, 0.5), cycles no
// shorter than the hardware base and positive round counts — lays out
// one patch per entry of cycles, and declares every qubit's coordinates.
// The merged row runs at the slowest patch's cycle.
func newBuilder(d int, basis Basis, hw hardware.Config, p float64, cycles []float64, rounds ...int) (*builder, error) {
	if d < 3 || d%2 == 0 {
		return nil, fmt.Errorf("surface: distance %d must be odd and ≥ 3", d)
	}
	if p < 0 || p >= 0.5 {
		return nil, fmt.Errorf("surface: depolarizing strength %v out of range", p)
	}
	base := hw.CycleNs()
	for i, cyc := range cycles {
		if cyc < base {
			return nil, fmt.Errorf("surface: patch %d cycle %v below hardware base %v", i, cyc, base)
		}
	}
	for _, r := range rounds {
		if r < 1 {
			return nil, fmt.Errorf("surface: round count %d must be positive", r)
		}
	}
	b := &builder{
		d: d, p: p, hw: hw, isX: basis == BasisX,
		c:        circuit.New(),
		nm:       noise.Model{P: p, T1Ns: hw.T1Ns, T2Ns: hw.T2Ns},
		lastMeas: make(map[int32]int32),
	}
	span := len(cycles)*(d+1) - 1 // k patches of width d plus k−1 buffer lines
	if b.isX {
		b.lay = NewLayout(d, span)
	} else {
		b.lay = NewLayout(span, d)
	}
	mergedCycle := 0.0
	for i, cyc := range cycles {
		a0 := i * (d + 1)
		ph, err := b.phase(a0, a0+d, cyc)
		if err != nil {
			return nil, err
		}
		b.patches = append(b.patches, ph)
		mergedCycle = max(mergedCycle, cyc)
		if i > 0 {
			for j := 0; j < d; j++ {
				b.buffer = append(b.buffer, b.data(a0-1, j))
			}
		}
	}
	if len(cycles) > 1 {
		ph, err := b.phase(0, span, mergedCycle)
		if err != nil {
			return nil, err
		}
		b.merged = ph
	}
	for q := int32(0); q < int32(b.lay.NumQubits()); q++ {
		x, y := b.lay.Coords(q)
		b.c.QubitCoords(q, x, y)
	}
	return b, nil
}

// data returns the data qubit on line along of the row, at position
// across within that line.
func (b *builder) data(along, across int) int32 {
	if b.isX {
		return b.lay.Data(across, along)
	}
	return b.lay.Data(along, across)
}

// phase instantiates the plaquettes covering lines [a0, a1) of the row.
func (b *builder) phase(a0, a1 int, cycleNs float64) (*patchPhase, error) {
	rg := Region{a0, 0, a1, b.d}
	if b.isX {
		rg = Region{0, a0, b.d, a1}
	}
	plaqs, err := b.lay.PlaquettesFor(rg)
	if err != nil {
		return nil, err
	}
	ph := &patchPhase{plaqs: plaqs, participation: make(map[int32]int), cycleNs: cycleNs}
	for r := rg.R0; r < rg.R1; r++ {
		for c := rg.C0; c < rg.C1; c++ {
			ph.dataQubits = append(ph.dataQubits, b.lay.Data(r, c))
		}
	}
	for _, pl := range plaqs {
		ph.ancs = append(ph.ancs, pl.Anc)
		if pl.IsX {
			ph.xAncs = append(ph.xAncs, pl.Anc)
		}
		for _, q := range pl.Corners {
			if q >= 0 {
				ph.participation[q]++
			}
		}
	}
	return ph, nil
}

// prepare resets qubits into |0⟩, or into |+⟩ when plus is set.
func (b *builder) prepare(qubits []int32, plus bool) {
	b.c.Reset(qubits...)
	b.c.XError(b.p, qubits...)
	if plus {
		b.c.H(qubits...)
		b.c.Depolarize1(b.p, qubits...)
	}
}

// standalone runs a patch on its own for rounds rounds, numbered from 0.
// spreadNs is split evenly before every round (Active); lastPreNs adds
// to the last round's pre-round idle and intraNs idles inside the last
// round (Active-intra). The first round's basis-type checks are
// deterministic after preparation, so each gets a single-record detector.
func (b *builder) standalone(ph *patchPhase, rounds int, spreadNs, lastPreNs, intraNs float64) {
	first := func(pl Plaquette, rec int32) { b.c.Detector(detCoords(pl, 0), rec) }
	b.startAncillas(ph)
	perRound := spreadNs / float64(rounds)
	for r := 0; r < rounds; r++ {
		pre, intra := perRound, 0.0
		if r == rounds-1 {
			intra = intraNs
			if lastPreNs > 0 {
				pre += lastPreNs
			}
		}
		b.round(ph, r, pre, intra, first)
	}
}

// merge runs the merged row for rounds rounds, numbered from pre. Its
// first round measures the seam plaquettes between the patches for the
// first time; the records of the basis-type ones on each seam form that
// seam's joint observable, numbered 0..k−2 in row order.
func (b *builder) merge(pre, rounds int) error {
	seams := make([][]int32, len(b.patches)-1)
	open := func(pl Plaquette, rec int32) {
		pos := pl.I
		if b.isX {
			pos = pl.J
		}
		// Seam s's new checks sit on the dual lines either side of its
		// buffer line: d + s(d+1) and d + 1 + s(d+1).
		seam := (pos - b.d) / (b.d + 1)
		seams[seam] = append(seams[seam], rec)
	}
	b.startAncillas(b.merged)
	for r := 0; r < rounds; r++ {
		b.round(b.merged, pre+r, 0, 0, open)
	}
	for seam, recs := range seams {
		if len(recs) == 0 {
			return fmt.Errorf("surface: seam %d produced no joint observable records", seam)
		}
		b.c.Observable(seam, recs...)
	}
	return nil
}

// readout measures the phase's data qubits transversally in the
// experiment basis, closes the basis-type checks with detectors at
// finalRound, writes the first patch's logical (column 0 for BasisX, row
// 0 for BasisZ) into observable obs, and validates the circuit.
func (b *builder) readout(ph *patchPhase, finalRound, obs int) error {
	c := b.c
	if b.isX {
		c.H(ph.dataQubits...)
		c.Depolarize1(b.p, ph.dataQubits...)
	}
	c.XError(b.p, ph.dataQubits...)
	dataRecs := c.Measure(ph.dataQubits...)
	recOf := make(map[int32]int32, len(ph.dataQubits))
	for i, q := range ph.dataQubits {
		recOf[q] = dataRecs[i]
	}
	for _, pl := range ph.plaqs {
		if pl.IsX != b.isX {
			continue
		}
		recs := []int32{b.lastMeas[pl.Anc]}
		for _, q := range pl.Corners {
			if q >= 0 {
				recs = append(recs, recOf[q])
			}
		}
		c.Detector(detCoords(pl, finalRound), recs...)
	}
	var obsRecs []int32
	for j := 0; j < b.d; j++ {
		obsRecs = append(obsRecs, recOf[b.data(0, j)])
	}
	c.Observable(obs, obsRecs...)
	if err := c.Validate(); err != nil {
		return fmt.Errorf("surface: generated circuit invalid: %w", err)
	}
	return nil
}

// idleChannel annotates a Pauli-twirled idle of tau ns on the qubits.
func (b *builder) idleChannel(tauNs float64, qubits ...int32) {
	if tauNs <= 0 || len(qubits) == 0 {
		return
	}
	px, py, pz := b.nm.IdleChannel(tauNs)
	if px+py+pz <= 0 {
		return
	}
	b.c.PauliChannel1(px, py, pz, qubits...)
}

// startAncillas resets the phase's ancillas that have never been
// measured.
func (b *builder) startAncillas(ph *patchPhase) {
	var fresh []int32
	for _, a := range ph.ancs {
		if _, ok := b.lastMeas[a]; !ok {
			fresh = append(fresh, a)
		}
	}
	if len(fresh) > 0 {
		b.c.Reset(fresh...)
		b.c.XError(b.p, fresh...)
	}
}

// round emits one syndrome-generation round of the phase at detector
// round coordinate r: preIdleNs idles the data before it starts, intraNs
// idles data and ancillas in five equal slices inside it. Every check
// measured before gets a detector against its previous record; a
// basis-type check measured for the first time goes to first instead.
func (b *builder) round(ph *patchPhase, r int, preIdleNs, intraNs float64, first func(Plaquette, int32)) {
	c := b.c
	p := b.p
	hw := b.hw
	var intra []int32
	if intraNs > 0 {
		intra = append(append(intra, ph.dataQubits...), ph.ancs...)
	}
	b.idleChannel(preIdleNs, ph.dataQubits...)

	// First Hadamard layer on X ancillas.
	if len(ph.xAncs) > 0 {
		c.H(ph.xAncs...)
		c.Depolarize1(p, ph.xAncs...)
	}
	b.idleChannel(intraNs/5, intra...)
	c.Tick()

	// Four CNOT layers with the zigzag schedule.
	for k := 0; k < 4; k++ {
		var pairs []int32
		for _, pl := range ph.plaqs {
			d := pl.ScheduleTarget(k)
			if d < 0 {
				continue
			}
			if pl.IsX {
				pairs = append(pairs, pl.Anc, d)
			} else {
				pairs = append(pairs, d, pl.Anc)
			}
		}
		if len(pairs) > 0 {
			c.CNOT(pairs...)
			c.Depolarize2(p, pairs...)
		}
		b.idleChannel(intraNs/5, intra...)
		c.Tick()
	}

	// Second Hadamard layer.
	if len(ph.xAncs) > 0 {
		c.H(ph.xAncs...)
		c.Depolarize1(p, ph.xAncs...)
	}
	c.Tick()

	// Measure + reset all ancillas (measurement flip before, reset flip
	// after).
	c.XError(p, ph.ancs...)
	recs := c.MeasureReset(ph.ancs...)
	c.XError(p, ph.ancs...)

	// Idle errors accumulated by data qubits over the round: both
	// Hadamard layers, the CNOT layers they sit out, the measure+reset
	// window, and any cycle stretch relative to the hardware base cycle.
	stretch := ph.cycleNs - hw.CycleNs()
	byIdle := make(map[float64][]int32)
	for _, q := range ph.dataQubits {
		idle := 2*hw.Gate1Ns + float64(4-ph.participation[q])*hw.Gate2Ns +
			hw.ReadoutNs + hw.ResetNs + stretch
		byIdle[idle] = append(byIdle[idle], q)
	}
	b.idleGroups(byIdle)
	// Ancilla idle: layers where a weight<4 plaquette has no CNOT, plus
	// the Hadamard layers for Z ancillas, plus cycle stretch.
	ancIdle := make(map[float64][]int32)
	for _, pl := range ph.plaqs {
		idle := float64(4-pl.Weight)*hw.Gate2Ns + stretch
		if !pl.IsX {
			idle += 2 * hw.Gate1Ns
		}
		if idle > 0 {
			ancIdle[idle] = append(ancIdle[idle], pl.Anc)
		}
	}
	b.idleGroups(ancIdle)

	for i, pl := range ph.plaqs {
		if prev, ok := b.lastMeas[pl.Anc]; ok {
			c.Detector(detCoords(pl, r), recs[i], prev)
		} else if pl.IsX == b.isX {
			first(pl, recs[i])
		}
		b.lastMeas[pl.Anc] = recs[i]
	}
	c.Tick()
}

// idleGroups emits one idle channel per distinct duration, in sorted
// order so generated circuits are byte-for-byte reproducible.
func (b *builder) idleGroups(groups map[float64][]int32) {
	durations := make([]float64, 0, len(groups))
	for d := range groups {
		durations = append(durations, d)
	}
	sort.Float64s(durations)
	for _, d := range durations {
		b.idleChannel(d, groups[d]...)
	}
}

// detCoords places a detector at the plaquette's dual position in round
// r, tagged with its check type.
func detCoords(pl Plaquette, r int) []float64 {
	check := circuit.CheckZ
	if pl.IsX {
		check = circuit.CheckX
	}
	return []float64{float64(pl.J), float64(pl.I), float64(r), check}
}
