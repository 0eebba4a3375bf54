// Package dem extracts detector error models from noisy stabilizer
// circuits.
//
// A detector error model (DEM) lists every elementary error mechanism in
// the circuit together with the set of detectors it flips and the logical
// observables it flips, exactly like Stim's detector_error_model. The
// extraction walks the circuit backwards once, maintaining for every qubit
// the set of detectors/observables sensitive to an X or Z inserted at the
// current position, so the cost is linear in circuit size regardless of
// the number of noise channels.
package dem

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"

	"latticesim/internal/circuit"
)

// buildCount counts FromCircuit invocations. Extraction is one of the
// expensive per-spec build steps the sweep engine's artifact cache
// deduplicates; the counter lets cache tests assert that each unique spec
// is extracted exactly once.
var buildCount atomic.Uint64

// BuildCount returns the number of FromCircuit calls made by this
// process. The difference across a workload measures how many model
// extractions it actually performed.
func BuildCount() uint64 { return buildCount.Load() }

// Error is one elementary error mechanism.
type Error struct {
	// P is the probability of the mechanism firing.
	P float64
	// Detectors are the flipped detector indices, sorted ascending.
	Detectors []int32
	// Obs is a bitmask of flipped logical observables (bit o = observable o).
	Obs uint64
}

// Model is the extracted detector error model.
type Model struct {
	NumDetectors   int
	NumObservables int
	Errors         []Error
	// DetectorInfo carries the circuit's detector annotations (coords,
	// check type) for downstream graph construction.
	DetectorInfo []circuit.DetectorInfo
}

// sensitivity is the set of detectors/observables flipped by a Pauli
// inserted at the current backward-walk position.
type sensitivity struct {
	dets []int32 // sorted
	obs  uint64
}

func (s sensitivity) empty() bool { return len(s.dets) == 0 && s.obs == 0 }

// xorSens returns the symmetric difference of two sensitivities.
func xorSens(a, b sensitivity) sensitivity {
	if b.empty() {
		return a
	}
	if a.empty() {
		return sensitivity{dets: append([]int32(nil), b.dets...), obs: b.obs}
	}
	return sensitivity{dets: mergeXor(make([]int32, 0, len(a.dets)+len(b.dets)), a.dets, b.dets), obs: a.obs ^ b.obs}
}

// xorScratch is xorSens for symptoms that are recorded and dropped: the
// merged detector list is written into *buf, which grows as needed and
// is reused by the next call. The result is valid until then. It may
// alias a or b when the other is empty.
func xorScratch(buf *[]int32, a, b sensitivity) sensitivity {
	if b.empty() {
		return a
	}
	if a.empty() {
		return b
	}
	*buf = mergeXor((*buf)[:0], a.dets, b.dets)
	return sensitivity{dets: *buf, obs: a.obs ^ b.obs}
}

// mergeXor appends the symmetric difference of the sorted lists a and b
// to out.
func mergeXor(out, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// FromCircuit extracts the detector error model of c.
func FromCircuit(c *circuit.Circuit) *Model {
	buildCount.Add(1)
	m := &Model{
		NumDetectors:   c.NumDetectors(),
		NumObservables: c.NumObservables(),
		DetectorInfo:   c.Detectors(),
	}

	// recSens[r] = detectors/observables whose parity includes record r.
	recSens := make([]sensitivity, c.NumMeasurements())
	detIdx := 0
	for _, op := range c.Ops {
		switch op.Type {
		case circuit.OpDetector:
			for _, r := range op.Records {
				recSens[r] = xorSens(recSens[r], sensitivity{dets: []int32{int32(detIdx)}})
			}
			detIdx++
		case circuit.OpObservable:
			bit := uint64(1) << uint(int(op.Args[0]))
			for _, r := range op.Records {
				recSens[r] = xorSens(recSens[r], sensitivity{obs: bit})
			}
		}
	}

	fx := make([]sensitivity, c.NumQubits())
	fz := make([]sensitivity, c.NumQubits())

	// acc maps a symptom's key to its index in m.Errors. The key is its
	// detectors as 4 little-endian bytes each, then the 8-byte observable
	// mask, assembled in one reused buffer: probing with acc[string(key)]
	// does not allocate, so only a new symptom copies its key and its
	// detectors.
	acc := make(map[string]int32)
	var key []byte
	record := func(p float64, s sensitivity) {
		if p <= 0 || s.empty() {
			return
		}
		key = key[:0]
		for _, d := range s.dets {
			key = binary.LittleEndian.AppendUint32(key, uint32(d))
		}
		key = binary.LittleEndian.AppendUint64(key, s.obs)
		if i, ok := acc[string(key)]; ok {
			// Two mechanisms with identical symptoms combine under XOR.
			e := &m.Errors[i]
			e.P = e.P*(1-p) + p*(1-e.P)
			return
		}
		acc[string(key)] = int32(len(m.Errors))
		m.Errors = append(m.Errors, Error{P: p, Detectors: append([]int32(nil), s.dets...), Obs: s.obs})
	}
	// Scratch for the Y = X·Z terms and DEPOLARIZE2 products, which are
	// recorded and then dropped.
	var ya, yb, prod []int32

	// The record counter runs backwards from the total.
	nextRec := int32(c.NumMeasurements())
	for oi := len(c.Ops) - 1; oi >= 0; oi-- {
		op := c.Ops[oi]
		switch op.Type {
		case circuit.OpH:
			for _, q := range op.Targets {
				fx[q], fz[q] = fz[q], fx[q]
			}
		case circuit.OpS:
			// Forward X → Y = X·Z, so an X inserted before S has the
			// combined X-and-Z downstream effect.
			for _, q := range op.Targets {
				fx[q] = xorSens(fx[q], fz[q])
			}
		case circuit.OpX, circuit.OpZ:
			// Pauli gates commute with Pauli errors (up to sign).
		case circuit.OpCNOT:
			for i := len(op.Targets) - 2; i >= 0; i -= 2 {
				ctrl, tgt := op.Targets[i], op.Targets[i+1]
				fx[ctrl] = xorSens(fx[ctrl], fx[tgt])
				fz[tgt] = xorSens(fz[tgt], fz[ctrl])
			}
		case circuit.OpReset:
			for _, q := range op.Targets {
				fx[q] = sensitivity{}
				fz[q] = sensitivity{}
			}
		case circuit.OpMeasure:
			for i := len(op.Targets) - 1; i >= 0; i-- {
				q := op.Targets[i]
				nextRec--
				// X before M flips the record and survives the collapse;
				// Z before M has no downstream effect.
				fx[q] = xorSens(fx[q], recSens[nextRec])
				fz[q] = sensitivity{}
			}
		case circuit.OpMeasureReset:
			for i := len(op.Targets) - 1; i >= 0; i-- {
				q := op.Targets[i]
				nextRec--
				// X before MR flips the record and is then erased by the
				// reset; Z is erased outright.
				fx[q] = sensitivity{dets: append([]int32(nil), recSens[nextRec].dets...), obs: recSens[nextRec].obs}
				fz[q] = sensitivity{}
			}
		case circuit.OpXError:
			for _, q := range op.Targets {
				record(op.Args[0], fx[q])
			}
		case circuit.OpZError:
			for _, q := range op.Targets {
				record(op.Args[0], fz[q])
			}
		case circuit.OpDepolarize1:
			p := op.Args[0] / 3
			for _, q := range op.Targets {
				record(p, fx[q])
				record(p, fz[q])
				record(p, xorScratch(&ya, fx[q], fz[q]))
			}
		case circuit.OpDepolarize2:
			p := op.Args[0] / 15
			for i := 0; i < len(op.Targets); i += 2 {
				a, b := op.Targets[i], op.Targets[i+1]
				pa := [4]sensitivity{{}, fx[a], xorScratch(&ya, fx[a], fz[a]), fz[a]}
				pb := [4]sensitivity{{}, fx[b], xorScratch(&yb, fx[b], fz[b]), fz[b]}
				for ka := 0; ka < 4; ka++ {
					for kb := 0; kb < 4; kb++ {
						if ka == 0 && kb == 0 {
							continue
						}
						record(p, xorScratch(&prod, pa[ka], pb[kb]))
					}
				}
			}
		case circuit.OpPauliChannel1:
			for _, q := range op.Targets {
				record(op.Args[0], fx[q])
				record(op.Args[1], xorScratch(&ya, fx[q], fz[q]))
				record(op.Args[2], fz[q])
			}
		case circuit.OpDetector, circuit.OpObservable, circuit.OpQubitCoords, circuit.OpTick:
		}
	}

	// Keys are unique, so this order is total.
	slices.SortFunc(m.Errors, func(a, b Error) int {
		if c := slices.Compare(a.Detectors, b.Detectors); c != 0 {
			return c
		}
		return cmp.Compare(a.Obs, b.Obs)
	})
	return m
}

// WriteText emits the model in Stim's DEM text format.
func (m *Model) WriteText(w io.Writer) error {
	for _, e := range m.Errors {
		parts := make([]string, 0, len(e.Detectors)+2)
		for _, d := range e.Detectors {
			parts = append(parts, fmt.Sprintf("D%d", d))
		}
		for o := 0; o < m.NumObservables; o++ {
			if e.Obs&(1<<uint(o)) != 0 {
				parts = append(parts, fmt.Sprintf("L%d", o))
			}
		}
		if _, err := fmt.Fprintf(w, "error(%g) %s\n", e.P, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

// Text returns the Stim DEM text encoding.
func (m *Model) Text() string {
	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		return ""
	}
	return sb.String()
}

// MaxDetectorsPerError returns the largest symptom size, a sanity metric
// for graph decomposition.
func (m *Model) MaxDetectorsPerError() int {
	max := 0
	for _, e := range m.Errors {
		if len(e.Detectors) > max {
			max = len(e.Detectors)
		}
	}
	return max
}
