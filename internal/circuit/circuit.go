// Package circuit defines the stabilizer-circuit intermediate representation
// shared by the tableau simulator, the Pauli-frame sampler and the
// detector-error-model extractor.
//
// The instruction set is the subset of Stim's language needed for surface
// code and lattice-surgery experiments: H, CX, R (reset to |0⟩), M
// (Z-basis measurement), MR (measure+reset), X, and the noise channels
// X_ERROR, Z_ERROR, DEPOLARIZE1, DEPOLARIZE2 and PAULI_CHANNEL_1, plus the
// annotations DETECTOR, OBSERVABLE_INCLUDE, QUBIT_COORDS and TICK.
//
// Unlike Stim's text format, measurement records inside the IR are
// absolute indices (0-based, in program order); the text encoder in this
// package converts them to Stim's rec[-k] form so emitted circuits load
// directly into Stim.
package circuit

import (
	"fmt"
	"math"
	"unsafe"
)

// OpType enumerates the supported instructions.
type OpType uint8

// Supported instruction kinds.
const (
	OpH OpType = iota
	OpX
	OpZ
	OpS
	OpCNOT
	OpReset        // R: reset target qubits to |0⟩
	OpMeasure      // M: Z-basis measurement
	OpMeasureReset // MR: Z-basis measurement followed by reset
	OpXError
	OpZError
	OpDepolarize1
	OpDepolarize2
	OpPauliChannel1 // PAULI_CHANNEL_1(px, py, pz)
	OpDetector
	OpObservable
	OpQubitCoords
	OpTick
)

var opNames = map[OpType]string{
	OpH:             "H",
	OpX:             "X",
	OpZ:             "Z",
	OpS:             "S",
	OpCNOT:          "CX",
	OpReset:         "R",
	OpMeasure:       "M",
	OpMeasureReset:  "MR",
	OpXError:        "X_ERROR",
	OpZError:        "Z_ERROR",
	OpDepolarize1:   "DEPOLARIZE1",
	OpDepolarize2:   "DEPOLARIZE2",
	OpPauliChannel1: "PAULI_CHANNEL_1",
	OpDetector:      "DETECTOR",
	OpObservable:    "OBSERVABLE_INCLUDE",
	OpQubitCoords:   "QUBIT_COORDS",
	OpTick:          "TICK",
}

// String returns the Stim mnemonic for the op type.
func (t OpType) String() string {
	if s, ok := opNames[t]; ok {
		return s
	}
	return fmt.Sprintf("OpType(%d)", uint8(t))
}

// IsNoise reports whether the op is a stochastic error channel.
func (t OpType) IsNoise() bool {
	switch t {
	case OpXError, OpZError, OpDepolarize1, OpDepolarize2, OpPauliChannel1:
		return true
	}
	return false
}

// IsTwoQubit reports whether targets are consumed in pairs.
func (t OpType) IsTwoQubit() bool {
	return t == OpCNOT || t == OpDepolarize2
}

// FusesByTargetConcat reports whether adjacent ops of this type may be
// merged into one op by concatenating their target lists without changing
// simulation semantics. This holds exactly for the deterministic
// gate-layer ops: they act on each target independently in order, and any
// randomness they consume (reset/measurement randomization) is drawn
// strictly per target. Stochastic channels are excluded — their event
// sampling spans the whole op (geometric skipping over targets × shots),
// so concatenating two channels would consume a different random stream
// than running them back to back.
func (t OpType) FusesByTargetConcat() bool {
	switch t {
	case OpH, OpX, OpZ, OpS, OpCNOT, OpReset, OpMeasure, OpMeasureReset:
		return true
	}
	return false
}

// Op is a single instruction. Interpretation of the fields depends on Type:
//
//   - gates/noise: Targets are qubit indices (pairs for CX/DEPOLARIZE2),
//     Args are channel probabilities.
//   - DETECTOR/OBSERVABLE_INCLUDE: Records are absolute measurement
//     indices; Args are detector coordinates (detector) or the observable
//     index (observable).
//   - QUBIT_COORDS: Targets[0] is the qubit, Args are its coordinates.
type Op struct {
	Type    OpType
	Targets []int32
	Args    []float64
	Records []int32
}

// Detector coordinate conventions used by the surface-code generator:
// Args = [x, y, round, checkType] with checkType 0 for Z-type checks and
// 1 for X-type checks. See DetectorInfo.
const (
	CheckZ = 0.0
	CheckX = 1.0
)

// DetectorInfo is the decoded view of one DETECTOR annotation.
type DetectorInfo struct {
	Index   int       // detector index in declaration order
	Coords  []float64 // copy of the annotation coordinates
	Records []int32   // absolute measurement indices
}

// Round returns the round coordinate (third entry), or -1 if absent.
func (d DetectorInfo) Round() int {
	if len(d.Coords) < 3 {
		return -1
	}
	return int(d.Coords[2])
}

// IsXCheck reports whether the detector is annotated as an X-type check.
func (d DetectorInfo) IsXCheck() bool {
	return len(d.Coords) >= 4 && d.Coords[3] == CheckX
}

// Circuit is an ordered instruction list plus derived counts.
type Circuit struct {
	Ops []Op

	numQubits       int
	numMeasurements int
	numDetectors    int
	numObservables  int
}

// New returns an empty circuit.
func New() *Circuit { return &Circuit{} }

// NumQubits returns one past the highest qubit index referenced.
func (c *Circuit) NumQubits() int { return c.numQubits }

// NumMeasurements returns the number of measurement records produced.
func (c *Circuit) NumMeasurements() int { return c.numMeasurements }

// NumDetectors returns the number of DETECTOR annotations.
func (c *Circuit) NumDetectors() int { return c.numDetectors }

// NumObservables returns one past the highest observable index used.
func (c *Circuit) NumObservables() int { return c.numObservables }

// Bytes estimates the circuit's heap size: the op list and the target,
// argument and record arrays of its ops. Builders hand one target list
// to several ops (a gate layer and its noise), so each backing array is
// counted once.
func (c *Circuit) Bytes() int64 {
	n := int64(unsafe.Sizeof(*c)) + int64(cap(c.Ops))*int64(unsafe.Sizeof(Op{}))
	seen := make(map[unsafe.Pointer]bool)
	add := func(data unsafe.Pointer, size int64) {
		if data != nil && !seen[data] {
			seen[data] = true
			n += size
		}
	}
	for i := range c.Ops {
		op := &c.Ops[i]
		add(unsafe.Pointer(unsafe.SliceData(op.Targets)), int64(cap(op.Targets))*4)
		add(unsafe.Pointer(unsafe.SliceData(op.Args)), int64(cap(op.Args))*8)
		add(unsafe.Pointer(unsafe.SliceData(op.Records)), int64(cap(op.Records))*4)
	}
	return n
}

func (c *Circuit) noteQubits(qs ...int32) {
	for _, q := range qs {
		if int(q) >= c.numQubits {
			c.numQubits = int(q) + 1
		}
	}
}

func (c *Circuit) appendGate(t OpType, qs ...int32) {
	if len(qs) == 0 {
		return
	}
	c.noteQubits(qs...)
	c.Ops = append(c.Ops, Op{Type: t, Targets: qs})
}

// H appends Hadamard gates.
func (c *Circuit) H(qs ...int32) { c.appendGate(OpH, qs...) }

// X appends Pauli-X gates.
func (c *Circuit) X(qs ...int32) { c.appendGate(OpX, qs...) }

// Z appends Pauli-Z gates.
func (c *Circuit) Z(qs ...int32) { c.appendGate(OpZ, qs...) }

// S appends phase gates.
func (c *Circuit) S(qs ...int32) { c.appendGate(OpS, qs...) }

// CNOT appends controlled-X gates; targets are (control, target) pairs.
func (c *Circuit) CNOT(pairs ...int32) {
	if len(pairs)%2 != 0 {
		panic("circuit: CNOT targets must come in pairs")
	}
	c.appendGate(OpCNOT, pairs...)
}

// Reset appends |0⟩ resets.
func (c *Circuit) Reset(qs ...int32) { c.appendGate(OpReset, qs...) }

// Measure appends Z-basis measurements and returns the absolute record
// indices produced, one per target.
func (c *Circuit) Measure(qs ...int32) []int32 {
	return c.measureLike(OpMeasure, qs...)
}

// MeasureReset appends measure-and-reset operations and returns the
// absolute record indices produced.
func (c *Circuit) MeasureReset(qs ...int32) []int32 {
	return c.measureLike(OpMeasureReset, qs...)
}

func (c *Circuit) measureLike(t OpType, qs ...int32) []int32 {
	if len(qs) == 0 {
		return nil
	}
	c.noteQubits(qs...)
	recs := make([]int32, len(qs))
	for i := range qs {
		recs[i] = int32(c.numMeasurements + i)
	}
	c.numMeasurements += len(qs)
	c.Ops = append(c.Ops, Op{Type: t, Targets: qs})
	return recs
}

// XError appends independent X error channels with probability p.
func (c *Circuit) XError(p float64, qs ...int32) {
	c.noise(OpXError, []float64{p}, qs...)
}

// ZError appends independent Z error channels with probability p.
func (c *Circuit) ZError(p float64, qs ...int32) {
	c.noise(OpZError, []float64{p}, qs...)
}

// Depolarize1 appends single-qubit depolarizing channels with probability p.
func (c *Circuit) Depolarize1(p float64, qs ...int32) {
	c.noise(OpDepolarize1, []float64{p}, qs...)
}

// Depolarize2 appends two-qubit depolarizing channels with probability p;
// targets are consumed in pairs.
func (c *Circuit) Depolarize2(p float64, pairs ...int32) {
	if len(pairs)%2 != 0 {
		panic("circuit: DEPOLARIZE2 targets must come in pairs")
	}
	c.noise(OpDepolarize2, []float64{p}, pairs...)
}

// PauliChannel1 appends single-qubit Pauli channels with probabilities
// (px, py, pz).
func (c *Circuit) PauliChannel1(px, py, pz float64, qs ...int32) {
	c.noise(OpPauliChannel1, []float64{px, py, pz}, qs...)
}

func (c *Circuit) noise(t OpType, args []float64, qs ...int32) {
	if len(qs) == 0 {
		return
	}
	total := 0.0
	for _, a := range args {
		if a < 0 || a > 1 || math.IsNaN(a) {
			panic(fmt.Sprintf("circuit: %v probability %v out of range", t, a))
		}
		total += a
	}
	if total == 0 {
		return // zero-probability channels are dropped
	}
	c.noteQubits(qs...)
	c.Ops = append(c.Ops, Op{Type: t, Targets: qs, Args: args})
}

// Detector appends a DETECTOR annotation over the given absolute
// measurement records, with optional coordinates, and returns its index.
func (c *Circuit) Detector(coords []float64, recs ...int32) int {
	c.checkRecords(recs)
	idx := c.numDetectors
	c.numDetectors++
	c.Ops = append(c.Ops, Op{
		Type:    OpDetector,
		Args:    append([]float64(nil), coords...),
		Records: append([]int32(nil), recs...),
	})
	return idx
}

// Observable appends measurement records to logical observable obs.
func (c *Circuit) Observable(obs int, recs ...int32) {
	c.checkRecords(recs)
	if obs+1 > c.numObservables {
		c.numObservables = obs + 1
	}
	c.Ops = append(c.Ops, Op{
		Type:    OpObservable,
		Args:    []float64{float64(obs)},
		Records: append([]int32(nil), recs...),
	})
}

func (c *Circuit) checkRecords(recs []int32) {
	for _, r := range recs {
		if r < 0 || int(r) >= c.numMeasurements {
			panic(fmt.Sprintf("circuit: record %d references a measurement that does not exist yet (have %d)", r, c.numMeasurements))
		}
	}
}

// QubitCoords records display coordinates for a qubit.
func (c *Circuit) QubitCoords(q int32, coords ...float64) {
	c.noteQubits(q)
	c.Ops = append(c.Ops, Op{Type: OpQubitCoords, Targets: []int32{q}, Args: coords})
}

// Tick appends a TICK layer marker.
func (c *Circuit) Tick() { c.Ops = append(c.Ops, Op{Type: OpTick}) }

// Detectors returns the decoded DETECTOR annotations in declaration order.
func (c *Circuit) Detectors() []DetectorInfo {
	out := make([]DetectorInfo, 0, c.numDetectors)
	for _, op := range c.Ops {
		if op.Type != OpDetector {
			continue
		}
		out = append(out, DetectorInfo{
			Index:   len(out),
			Coords:  op.Args,
			Records: op.Records,
		})
	}
	return out
}

// Validate checks structural invariants: paired targets for two-qubit
// ops, in-range record references, and probability bounds. The builder
// methods already enforce these; Validate exists for circuits constructed
// directly or parsed from text.
func (c *Circuit) Validate() error {
	measured := 0
	for i, op := range c.Ops {
		if op.Type.IsTwoQubit() && len(op.Targets)%2 != 0 {
			return fmt.Errorf("op %d (%v): odd target count %d", i, op.Type, len(op.Targets))
		}
		switch op.Type {
		case OpMeasure, OpMeasureReset:
			measured += len(op.Targets)
		case OpDetector, OpObservable:
			for _, r := range op.Records {
				if r < 0 || int(r) >= measured {
					return fmt.Errorf("op %d (%v): record %d out of range (have %d)", i, op.Type, r, measured)
				}
			}
			if op.Type == OpObservable && len(op.Args) != 1 {
				return fmt.Errorf("op %d: OBSERVABLE_INCLUDE needs exactly one index argument", i)
			}
		}
		if op.Type.IsNoise() {
			want := 1
			if op.Type == OpPauliChannel1 {
				want = 3
			}
			if len(op.Args) != want {
				return fmt.Errorf("op %d (%v): expected %d args, got %d", i, op.Type, want, len(op.Args))
			}
			total := 0.0
			for _, a := range op.Args {
				if a < 0 || a > 1 {
					return fmt.Errorf("op %d (%v): probability %v out of range", i, op.Type, a)
				}
				total += a
			}
			if total > 1 {
				return fmt.Errorf("op %d (%v): total probability %v exceeds 1", i, op.Type, total)
			}
		}
	}
	if measured != c.numMeasurements {
		return fmt.Errorf("measurement count mismatch: ops produce %d, circuit records %d", measured, c.numMeasurements)
	}
	return nil
}

// CountOps returns the number of ops of the given type.
func (c *Circuit) CountOps(t OpType) int {
	n := 0
	for _, op := range c.Ops {
		if op.Type == t {
			n++
		}
	}
	return n
}
