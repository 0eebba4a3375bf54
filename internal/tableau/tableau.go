// Package tableau implements an Aaronson–Gottesman CHP stabilizer
// simulator with bit-packed rows.
//
// It serves three roles in this repository:
//
//   - producing the noiseless reference sample that the Pauli-frame
//     sampler (package frame) flips against,
//   - reporting whether each measurement outcome is deterministic, which
//     the test suite uses to verify detector/observable determinism of
//     generated lattice-surgery circuits, and
//   - acting as a slow-but-trusted oracle for randomized cross-checks of
//     the fast samplers.
package tableau

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// Sim is a stabilizer tableau over n qubits. Rows 0..n-1 are
// destabilizers, rows n..2n-1 are stabilizers, and row 2n is scratch.
type Sim struct {
	n     int
	words int
	x     [][]uint64 // x[i] has words entries; bit q of row i
	z     [][]uint64
	r     []uint8 // phase exponent mod 4 (always 0 or 2 between ops)
	rng   *rand.Rand
}

// New returns a simulator for n qubits in the all-|0⟩ state. The RNG
// drives random measurement outcomes and must not be nil.
func New(n int, rng *rand.Rand) *Sim {
	if rng == nil {
		panic("tableau: nil rng")
	}
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	s := &Sim{
		n:     n,
		words: words,
		x:     make([][]uint64, 2*n+1),
		z:     make([][]uint64, 2*n+1),
		r:     make([]uint8, 2*n+1),
		rng:   rng,
	}
	backing := make([]uint64, (2*n+1)*2*words)
	for i := range s.x {
		s.x[i] = backing[:words:words]
		backing = backing[words:]
		s.z[i] = backing[:words:words]
		backing = backing[words:]
	}
	for i := 0; i < n; i++ {
		s.x[i][i/64] |= 1 << (i % 64)   // destabilizer X_i
		s.z[n+i][i/64] |= 1 << (i % 64) // stabilizer Z_i
	}
	return s
}

// NumQubits returns the qubit count.
func (s *Sim) NumQubits() int { return s.n }

func (s *Sim) check(q int32) {
	if q < 0 || int(q) >= s.n {
		panic(fmt.Sprintf("tableau: qubit %d out of range [0,%d)", q, s.n))
	}
}

// H applies a Hadamard to qubit q.
func (s *Sim) H(q int32) {
	s.check(q)
	w, b := int(q)/64, uint(q)%64
	mask := uint64(1) << b
	for i := 0; i <= 2*s.n; i++ {
		xi, zi := s.x[i][w]&mask, s.z[i][w]&mask
		if xi != 0 && zi != 0 {
			s.r[i] = (s.r[i] + 2) & 3
		}
		s.x[i][w] = (s.x[i][w] &^ mask) | zi
		s.z[i][w] = (s.z[i][w] &^ mask) | xi
	}
}

// S applies a phase gate to qubit q.
func (s *Sim) S(q int32) {
	s.check(q)
	w, b := int(q)/64, uint(q)%64
	mask := uint64(1) << b
	for i := 0; i <= 2*s.n; i++ {
		xi, zi := s.x[i][w]&mask, s.z[i][w]&mask
		if xi != 0 && zi != 0 {
			s.r[i] = (s.r[i] + 2) & 3
		}
		s.z[i][w] ^= xi
	}
}

// X applies a Pauli X to qubit q.
func (s *Sim) X(q int32) {
	s.check(q)
	w := int(q) / 64
	mask := uint64(1) << (uint(q) % 64)
	for i := 0; i <= 2*s.n; i++ {
		if s.z[i][w]&mask != 0 {
			s.r[i] = (s.r[i] + 2) & 3
		}
	}
}

// Z applies a Pauli Z to qubit q.
func (s *Sim) Z(q int32) {
	s.check(q)
	w := int(q) / 64
	mask := uint64(1) << (uint(q) % 64)
	for i := 0; i <= 2*s.n; i++ {
		if s.x[i][w]&mask != 0 {
			s.r[i] = (s.r[i] + 2) & 3
		}
	}
}

// CNOT applies a controlled-X with control c and target t.
func (s *Sim) CNOT(c, t int32) {
	s.check(c)
	s.check(t)
	if c == t {
		panic("tableau: CNOT control equals target")
	}
	cw, cb := int(c)/64, uint(c)%64
	tw, tb := int(t)/64, uint(t)%64
	cm := uint64(1) << cb
	tm := uint64(1) << tb
	for i := 0; i <= 2*s.n; i++ {
		xc := s.x[i][cw]&cm != 0
		zc := s.z[i][cw]&cm != 0
		xt := s.x[i][tw]&tm != 0
		zt := s.z[i][tw]&tm != 0
		if xc && zt && (xt == zc) {
			s.r[i] = (s.r[i] + 2) & 3
		}
		if xc {
			s.x[i][tw] ^= tm
		}
		if zt {
			s.z[i][cw] ^= cm
		}
	}
}

// rowsum multiplies row i into row h (h := i * h), tracking the phase.
func (s *Sim) rowsum(h, i int) {
	cnt := int(s.r[h]) + int(s.r[i])
	xh, zh := s.x[h], s.z[h]
	xi, zi := s.x[i], s.z[i]
	for w := 0; w < s.words; w++ {
		a, b := xi[w], zi[w]
		c, d := xh[w], zh[w]
		// g contribution of multiplying Pauli (a,b) into (c,d):
		// +1 cases and -1 cases per the CHP phase function.
		plus := (a & b & d & ^c) | (a & ^b & d & c) | (^a & b & c & ^d)
		minus := (a & b & c & ^d) | (a & ^b & d & ^c) | (^a & b & c & d)
		cnt += bits.OnesCount64(plus) - bits.OnesCount64(minus)
		xh[w] = a ^ c
		zh[w] = b ^ d
	}
	// Destabilizer rows may accumulate odd (±i) phases when combined with
	// an anticommuting pivot; their phases are irrelevant to the
	// algorithm, so the value is kept mod 4 without complaint. Stabilizer
	// and scratch rows always land on 0 or 2 (asserted at use sites).
	s.r[h] = uint8(((cnt % 4) + 4) % 4)
}

func (s *Sim) copyRow(dst, src int) {
	copy(s.x[dst], s.x[src])
	copy(s.z[dst], s.z[src])
	s.r[dst] = s.r[src]
}

func (s *Sim) zeroRow(i int) {
	for w := range s.x[i] {
		s.x[i][w] = 0
		s.z[i][w] = 0
	}
	s.r[i] = 0
}

// MeasureZ measures qubit q in the Z basis. It returns the outcome and
// whether the outcome was deterministic (fixed by the current state).
func (s *Sim) MeasureZ(q int32) (outcome bool, deterministic bool) {
	s.check(q)
	w := int(q) / 64
	mask := uint64(1) << (uint(q) % 64)
	n := s.n

	p := -1
	for i := n; i < 2*n; i++ {
		if s.x[i][w]&mask != 0 {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome.
		for i := 0; i <= 2*n; i++ {
			if i != p && s.x[i][w]&mask != 0 {
				s.rowsum(i, p)
			}
		}
		s.copyRow(p-n, p)
		s.zeroRow(p)
		s.z[p][w] |= mask
		out := s.rng.Uint64()&1 == 1
		if out {
			s.r[p] = 2
		}
		return out, false
	}
	// Deterministic outcome: accumulate into scratch row.
	scratch := 2 * n
	s.zeroRow(scratch)
	for i := 0; i < n; i++ {
		if s.x[i][w]&mask != 0 {
			s.rowsum(scratch, i+n)
		}
	}
	if s.r[scratch]&1 != 0 {
		panic("tableau: odd phase on scratch row (commuting stabilizers)")
	}
	return s.r[scratch] == 2, true
}

// Reset forces qubit q to |0⟩ (measure, then flip if needed).
func (s *Sim) Reset(q int32) {
	out, _ := s.MeasureZ(q)
	if out {
		s.X(q)
	}
}
