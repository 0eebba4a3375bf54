package frame

// Compiled execution plans for the Pauli-frame sampler.
//
// Compile lowers a circuit.Circuit into a flat instruction stream that
// SampleBatch can dispatch over without re-walking circuit.Ops: display
// annotations (QUBIT_COORDS, TICK) and frame-identity gates (X, Z) are
// dropped, adjacent same-type gate-layer ops are fused into single
// instructions over concatenated target lists, detector and observable
// instructions carry their output slot so no cursor state is needed, and
// noise channels precompute the geometric-skipping constant
// 1/log1p(-p) that the interpreter recomputes every batch.
//
// The plan is bit-identical to interpretation: every transformation
// preserves the exact sequence of RNG draws (fusion is restricted to op
// types whose randomness is drawn strictly per target — see
// circuit.OpType.FusesByTargetConcat — and dropped ops draw none), so a
// compiled sampler produces the same Det/Obs words as an interpreted one
// for the same (circuit, seed, batch sequence). TestCompiledMatches-
// Interpreted enforces this over randomized circuits.

import (
	"math/rand/v2"
	"unsafe"

	"latticesim/internal/circuit"
)

// instrKind enumerates the compiled instruction set.
type instrKind uint8

const (
	iHadamard instrKind = iota
	iPhase
	iCNOT
	iReset
	iMeasure
	iMeasureReset
	iXError
	iZError
	iDepolarize1
	iDepolarize2
	iPauliChannel1
	iDetector
	iObservable
)

// instr is one compiled instruction. Field use by kind:
//
//   - gate kinds: targets (pairs for iCNOT); out is the base measurement
//     record index for iMeasure/iMeasureReset.
//   - noise kinds: targets, p (total event probability), invLog
//     (precomputed 1/log1p(-p), 0 when unused), and px/py/pz for
//     iPauliChannel1.
//   - iDetector/iObservable: records (absolute measurement indices) and
//     out (detector slot / observable index).
type instr struct {
	kind       instrKind
	targets    []int32
	records    []int32
	out        int32
	p          float64
	px, py, pz float64
	invLog     float64

	// ownedTargets marks target slices that were copied during fusion and
	// may be appended to; unfused instructions alias the circuit's slices.
	ownedTargets bool
}

// Plan is a compiled, immutable execution plan for one circuit. Build it
// once with Compile and mint any number of samplers from it (each sampler
// owns its scratch; the plan itself is safe to share across goroutines).
type Plan struct {
	numQubits    int
	numMeas      int
	numDetectors int
	numObs       int

	instrs []instr

	sourceOps int // ops in the source circuit
	fusedOps  int // source ops merged into a preceding instruction
}

// gateKinds maps fusable gate-layer op types to instruction kinds.
func gateKind(t circuit.OpType) (instrKind, bool) {
	switch t {
	case circuit.OpH:
		return iHadamard, true
	case circuit.OpS:
		return iPhase, true
	case circuit.OpCNOT:
		return iCNOT, true
	case circuit.OpReset:
		return iReset, true
	case circuit.OpMeasure:
		return iMeasure, true
	case circuit.OpMeasureReset:
		return iMeasureReset, true
	}
	return 0, false
}

// Compile lowers the circuit into a flat instruction stream. The circuit
// must be valid (see circuit.Validate); the plan aliases the circuit's
// target and record slices, so the circuit must not be mutated afterwards.
func Compile(c *circuit.Circuit) *Plan {
	p := &Plan{
		numQubits:    c.NumQubits(),
		numMeas:      c.NumMeasurements(),
		numDetectors: c.NumDetectors(),
		numObs:       c.NumObservables(),
		sourceOps:    len(c.Ops),
	}
	detCursor := int32(0)
	measured := int32(0)
	for _, op := range c.Ops {
		switch op.Type {
		case circuit.OpQubitCoords, circuit.OpTick:
			// Display annotations: no frame effect, no RNG draws.
			continue
		case circuit.OpX, circuit.OpZ:
			// Deterministic Paulis are part of the reference run; the
			// frame is unchanged and nothing random is drawn.
			continue
		case circuit.OpDetector:
			p.instrs = append(p.instrs, instr{
				kind:    iDetector,
				records: op.Records,
				out:     detCursor,
			})
			detCursor++
			continue
		case circuit.OpObservable:
			p.instrs = append(p.instrs, instr{
				kind:    iObservable,
				records: op.Records,
				out:     int32(op.Args[0]),
			})
			continue
		}
		if op.Type.IsNoise() {
			in := instr{targets: op.Targets}
			switch op.Type {
			case circuit.OpXError:
				in.kind = iXError
				in.p = op.Args[0]
			case circuit.OpZError:
				in.kind = iZError
				in.p = op.Args[0]
			case circuit.OpDepolarize1:
				in.kind = iDepolarize1
				in.p = op.Args[0]
			case circuit.OpDepolarize2:
				in.kind = iDepolarize2
				in.p = op.Args[0]
			case circuit.OpPauliChannel1:
				in.kind = iPauliChannel1
				in.px, in.py, in.pz = op.Args[0], op.Args[1], op.Args[2]
				in.p = in.px + in.py + in.pz
			}
			if in.p <= 0 {
				// Zero-probability channels draw no randomness in the
				// interpreter either (forEachFlip returns immediately).
				continue
			}
			in.invLog = invLogFor(in.p)
			p.instrs = append(p.instrs, in)
			continue
		}
		kind, ok := gateKind(op.Type)
		if !ok {
			// Future op types fall back to an uncompiled sampler rather
			// than silently mis-executing.
			panic("frame: Compile: unsupported op type " + op.Type.String())
		}
		recBase := measured
		if op.Type == circuit.OpMeasure || op.Type == circuit.OpMeasureReset {
			measured += int32(len(op.Targets))
		}
		if n := len(p.instrs); n > 0 && p.instrs[n-1].kind == kind && op.Type.FusesByTargetConcat() {
			last := &p.instrs[n-1]
			if !last.ownedTargets {
				merged := make([]int32, 0, len(last.targets)+len(op.Targets))
				merged = append(merged, last.targets...)
				last.targets = merged
				last.ownedTargets = true
			}
			last.targets = append(last.targets, op.Targets...)
			p.fusedOps++
			continue
		}
		p.instrs = append(p.instrs, instr{kind: kind, targets: op.Targets, out: recBase})
	}
	return p
}

// NumDetectors returns the compiled circuit's detector count.
func (p *Plan) NumDetectors() int { return p.numDetectors }

// NumObservables returns the compiled circuit's observable count.
func (p *Plan) NumObservables() int { return p.numObs }

// NumInstructions returns the length of the compiled instruction stream.
func (p *Plan) NumInstructions() int { return len(p.instrs) }

// FusedOps returns how many source ops were merged into a preceding
// instruction (plus annotations dropped: SourceOps - NumInstructions -
// FusedOps are the dropped ops).
func (p *Plan) FusedOps() int { return p.fusedOps }

// SourceOps returns the op count of the source circuit.
func (p *Plan) SourceOps() int { return p.sourceOps }

// Bytes estimates the plan's own heap size: the instruction stream and
// the target lists fusion copied. Slices aliased from the circuit are
// the circuit's bytes, not the plan's.
func (p *Plan) Bytes() int64 {
	n := int64(unsafe.Sizeof(*p)) + int64(cap(p.instrs))*int64(unsafe.Sizeof(instr{}))
	for i := range p.instrs {
		if in := &p.instrs[i]; in.ownedTargets {
			n += int64(cap(in.targets)) * int64(unsafe.Sizeof(in.targets[0]))
		}
	}
	return n
}

// DetectorInstr returns the index of the plan instruction that computes
// detector word d, or -1 if no instruction writes it. The differential
// harness uses it to name the instruction behind a diverging word.
func (p *Plan) DetectorInstr(d int) int {
	for i := range p.instrs {
		if in := &p.instrs[i]; in.kind == iDetector && int(in.out) == d {
			return i
		}
	}
	return -1
}

// ObservableInstr returns the index of the first plan instruction that
// accumulates into observable word o, or -1 if none does.
func (p *Plan) ObservableInstr(o int) int {
	for i := range p.instrs {
		if in := &p.instrs[i]; in.kind == iObservable && int(in.out) == o {
			return i
		}
	}
	return -1
}

// NewSampler mints a sampler that executes the compiled plan. Each
// sampler owns private scratch; mint one per goroutine.
func (p *Plan) NewSampler() *Sampler {
	return &Sampler{
		plan:         p,
		numQubits:    p.numQubits,
		numMeas:      p.numMeas,
		numDetectors: p.numDetectors,
		numObs:       p.numObs,
		x:            make([]uint64, p.numQubits),
		z:            make([]uint64, p.numQubits),
		rec:          make([]uint64, p.numMeas),
		det:          make([]uint64, p.numDetectors),
		obs:          make([]uint64, p.numObs),
	}
}

// runPlan executes the compiled instruction stream for one batch. The
// frame and record words must already be initialized by SampleBatch.
func (s *Sampler) runPlan(rng *rand.Rand, shots int) {
	for i := range s.plan.instrs {
		in := &s.plan.instrs[i]
		switch in.kind {
		case iHadamard:
			for _, q := range in.targets {
				s.x[q], s.z[q] = s.z[q], s.x[q]
			}
		case iPhase:
			for _, q := range in.targets {
				s.z[q] ^= s.x[q]
			}
		case iCNOT:
			tg := in.targets
			for j := 0; j < len(tg); j += 2 {
				c, t := tg[j], tg[j+1]
				s.x[t] ^= s.x[c]
				s.z[c] ^= s.z[t]
			}
		case iReset:
			for _, q := range in.targets {
				s.x[q] = 0
				s.z[q] = rng.Uint64()
			}
		case iMeasure:
			rec := in.out
			for _, q := range in.targets {
				s.rec[rec] = s.x[q]
				rec++
				s.z[q] = rng.Uint64()
			}
		case iMeasureReset:
			rec := in.out
			for _, q := range in.targets {
				s.rec[rec] = s.x[q]
				rec++
				s.x[q] = 0
				s.z[q] = rng.Uint64()
			}
		case iXError:
			s.sampleSingles(rng, in.targets, in.p, in.invLog, shots, pauliX)
		case iZError:
			s.sampleSingles(rng, in.targets, in.p, in.invLog, shots, pauliZ)
		case iDepolarize1:
			s.sampleDepolarize1(rng, in.targets, in.p, in.invLog, shots)
		case iDepolarize2:
			s.sampleDepolarize2(rng, in.targets, in.p, in.invLog, shots)
		case iPauliChannel1:
			s.samplePauliChannel1(rng, in.targets, in.px, in.py, in.pz, in.p, in.invLog, shots)
		case iDetector:
			var w uint64
			for _, r := range in.records {
				w ^= s.rec[r]
			}
			s.det[in.out] = w
		case iObservable:
			var w uint64
			for _, r := range in.records {
				w ^= s.rec[r]
			}
			s.obs[in.out] ^= w
		}
	}
}
