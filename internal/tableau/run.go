package tableau

import (
	"fmt"
	"math/rand/v2"

	"latticesim/internal/circuit"
)

// RunResult holds the outcome of executing a circuit on the tableau
// simulator.
type RunResult struct {
	// Records holds each measurement outcome in program order.
	Records []bool
	// Deterministic[i] reports whether Records[i] was fixed by the state.
	Deterministic []bool
	// Detectors holds the parity of each DETECTOR's records.
	Detectors []bool
	// Observables holds the parity of each logical observable's records.
	Observables []bool
}

// Run executes the circuit. If withNoise is true, noise channels are
// sampled using the simulator's RNG and applied as Pauli errors;
// otherwise they are skipped (noiseless reference run).
func Run(c *circuit.Circuit, rng *rand.Rand, withNoise bool) *RunResult {
	s := New(c.NumQubits(), rng)
	res := &RunResult{
		Records:       make([]bool, 0, c.NumMeasurements()),
		Deterministic: make([]bool, 0, c.NumMeasurements()),
		Detectors:     make([]bool, 0, c.NumDetectors()),
		Observables:   make([]bool, c.NumObservables()),
	}
	for _, op := range c.Ops {
		switch op.Type {
		case circuit.OpH:
			for _, q := range op.Targets {
				s.H(q)
			}
		case circuit.OpS:
			for _, q := range op.Targets {
				s.S(q)
			}
		case circuit.OpX:
			for _, q := range op.Targets {
				s.X(q)
			}
		case circuit.OpZ:
			for _, q := range op.Targets {
				s.Z(q)
			}
		case circuit.OpCNOT:
			for i := 0; i < len(op.Targets); i += 2 {
				s.CNOT(op.Targets[i], op.Targets[i+1])
			}
		case circuit.OpReset:
			for _, q := range op.Targets {
				s.Reset(q)
			}
		case circuit.OpMeasure:
			for _, q := range op.Targets {
				out, det := s.MeasureZ(q)
				res.Records = append(res.Records, out)
				res.Deterministic = append(res.Deterministic, det)
			}
		case circuit.OpMeasureReset:
			for _, q := range op.Targets {
				out, det := s.MeasureZ(q)
				res.Records = append(res.Records, out)
				res.Deterministic = append(res.Deterministic, det)
				if out {
					s.X(q)
				}
			}
		case circuit.OpXError, circuit.OpZError, circuit.OpDepolarize1,
			circuit.OpDepolarize2, circuit.OpPauliChannel1:
			if withNoise {
				applyNoise(s, op, rng)
			}
		case circuit.OpDetector:
			par := false
			for _, r := range op.Records {
				par = par != res.Records[r]
			}
			res.Detectors = append(res.Detectors, par)
		case circuit.OpObservable:
			obs := int(op.Args[0])
			for _, r := range op.Records {
				res.Observables[obs] = res.Observables[obs] != res.Records[r]
			}
		case circuit.OpQubitCoords, circuit.OpTick:
			// annotations only
		default:
			panic(fmt.Sprintf("tableau: unsupported op %v", op.Type))
		}
	}
	return res
}

func applyNoise(s *Sim, op circuit.Op, rng *rand.Rand) {
	switch op.Type {
	case circuit.OpXError:
		for _, q := range op.Targets {
			if rng.Float64() < op.Args[0] {
				s.X(q)
			}
		}
	case circuit.OpZError:
		for _, q := range op.Targets {
			if rng.Float64() < op.Args[0] {
				s.Z(q)
			}
		}
	case circuit.OpDepolarize1:
		for _, q := range op.Targets {
			if rng.Float64() < op.Args[0] {
				applyPauli(s, q, 1+rng.IntN(3))
			}
		}
	case circuit.OpDepolarize2:
		for i := 0; i < len(op.Targets); i += 2 {
			if rng.Float64() < op.Args[0] {
				k := 1 + rng.IntN(15)
				applyPauli(s, op.Targets[i], k%4)
				applyPauli(s, op.Targets[i+1], k/4)
			}
		}
	case circuit.OpPauliChannel1:
		px, py, pz := op.Args[0], op.Args[1], op.Args[2]
		for _, q := range op.Targets {
			u := rng.Float64()
			switch {
			case u < px:
				applyPauli(s, q, 1)
			case u < px+py:
				applyPauli(s, q, 2)
			case u < px+py+pz:
				applyPauli(s, q, 3)
			}
		}
	}
}

// applyPauli applies I (0), X (1), Y (2) or Z (3) to qubit q.
func applyPauli(s *Sim, q int32, pauli int) {
	switch pauli {
	case 1:
		s.X(q)
	case 2:
		s.X(q)
		s.Z(q)
	case 3:
		s.Z(q)
	}
}
