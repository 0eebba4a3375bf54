// Package surface generates stabilizer circuits for rotated surface code
// experiments — a single-patch memory, a two-patch Lattice Surgery merge
// and a k-patch chain merge (paper §2, §4.3, Fig. 13) — with a
// per-platform timing model and policy-driven idle insertion (§6). The
// three share one row layout and one builder: each Build is a short
// recipe over the same steps (prepare, standalone rounds, merge,
// readout), and the order of its steps fixes the circuit's bytes.
//
// Geometry. Data qubits live on an R×C grid. Plaquettes sit on the dual
// grid (i,j), i∈0..R, j∈0..C, covering the (up to four) data qubits at
// rows i−1..i, cols j−1..j. A plaquette is Z-type iff (i+j) is even.
// Horizontal boundaries (top/bottom) host only X-type weight-2 checks,
// vertical boundaries host only Z-type ones, so the logical Z operator is
// a row of Z's and the logical X a column of X's. For odd R and C this
// yields exactly R·C−1 stabilizers.
package surface

import (
	"fmt"
)

// Basis selects the Lattice Surgery type: BasisX merges along columns and
// measures X_P⊗X_P′ (the paper's "Z-basis lattice surgery" panels);
// BasisZ merges along rows and measures Z_P⊗Z_P′.
type Basis int

// The two merge bases.
const (
	BasisZ Basis = iota
	BasisX
)

// String names the basis by the joint observable it measures.
func (b Basis) String() string {
	if b == BasisX {
		return "XX"
	}
	return "ZZ"
}

// ParseBasis maps a basis name to its Basis: "", "X" and "XX" select
// BasisX, "Z" and "ZZ" select BasisZ.
func ParseBasis(s string) (Basis, error) {
	switch s {
	case "", "X", "XX":
		return BasisX, nil
	case "Z", "ZZ":
		return BasisZ, nil
	}
	return 0, fmt.Errorf("unknown basis %q (X or Z)", s)
}

// Region is a half-open rectangle of data qubits: rows [R0,R1), cols
// [C0,C1).
type Region struct {
	R0, C0, R1, C1 int
}

// Contains reports whether data position (r, c) lies in the region.
func (rg Region) Contains(r, c int) bool {
	return r >= rg.R0 && r < rg.R1 && c >= rg.C0 && c < rg.C1
}

// Corner order for plaquette supports and CNOT schedules.
const (
	cornerNW = iota
	cornerNE
	cornerSW
	cornerSE
)

// xOrder and zOrder are the standard zigzag CNOT schedules that avoid
// distance-reducing hook errors (Tomita–Svore).
var (
	xOrder = [4]int{cornerNW, cornerNE, cornerSW, cornerSE}
	zOrder = [4]int{cornerNW, cornerSW, cornerNE, cornerSE}
)

// Plaquette is one stabilizer generator instance within a region.
type Plaquette struct {
	I, J    int
	IsX     bool
	Anc     int32
	Corners [4]int32 // data qubit ids in NW,NE,SW,SE order; -1 if absent
	Weight  int
}

// Support returns the present data qubits.
func (p Plaquette) Support() []int32 {
	out := make([]int32, 0, 4)
	for _, q := range p.Corners {
		if q >= 0 {
			out = append(out, q)
		}
	}
	return out
}

// ScheduleTarget returns the data qubit the plaquette interacts with in
// CNOT layer k (0..3), or -1 if it idles that layer.
func (p Plaquette) ScheduleTarget(k int) int32 {
	if p.IsX {
		return p.Corners[xOrder[k]]
	}
	return p.Corners[zOrder[k]]
}

// Layout assigns qubit ids over a bounding grid shared by every phase of
// an experiment, so standalone patches and the merged patch refer to the
// same physical qubits.
type Layout struct {
	Rows, Cols int

	data    [][]int32
	anc     map[[2]int]int32
	nQubits int32
	coords  map[int32][2]float64
}

// NewLayout creates a layout for an R×C data grid. Data qubit ids are
// assigned eagerly; ancilla ids lazily as plaquettes are instantiated.
func NewLayout(rows, cols int) *Layout {
	l := &Layout{
		Rows:   rows,
		Cols:   cols,
		data:   make([][]int32, rows),
		anc:    make(map[[2]int]int32),
		coords: make(map[int32][2]float64),
	}
	for r := 0; r < rows; r++ {
		l.data[r] = make([]int32, cols)
		for c := 0; c < cols; c++ {
			id := l.nQubits
			l.nQubits++
			l.data[r][c] = id
			// Data qubits at odd-odd display coordinates.
			l.coords[id] = [2]float64{float64(2*c + 1), float64(2*r + 1)}
		}
	}
	return l
}

// Data returns the qubit id of data position (r, c).
func (l *Layout) Data(r, c int) int32 { return l.data[r][c] }

// NumQubits returns the number of qubit ids allocated so far.
func (l *Layout) NumQubits() int { return int(l.nQubits) }

// Coords returns display coordinates for the qubit.
func (l *Layout) Coords(q int32) (x, y float64) {
	xy := l.coords[q]
	return xy[0], xy[1]
}

func (l *Layout) ancAt(i, j int) int32 {
	key := [2]int{i, j}
	if id, ok := l.anc[key]; ok {
		return id
	}
	id := l.nQubits
	l.nQubits++
	l.anc[key] = id
	l.coords[id] = [2]float64{float64(2 * j), float64(2 * i)}
	return id
}

// IsXType reports the plaquette type at dual-grid position (i, j).
func IsXType(i, j int) bool { return (i+j)%2 == 1 }

// PlaquettesFor instantiates the stabilizers of the rotated code on the
// given region. Region height and width must be odd.
func (l *Layout) PlaquettesFor(rg Region) ([]Plaquette, error) {
	h, w := rg.R1-rg.R0, rg.C1-rg.C0
	if h < 1 || w < 1 || h%2 == 0 || w%2 == 0 {
		return nil, fmt.Errorf("surface: region %+v must have odd positive dimensions", rg)
	}
	var out []Plaquette
	for i := rg.R0; i <= rg.R1; i++ {
		for j := rg.C0; j <= rg.C1; j++ {
			isX := IsXType(i, j)
			onTop := i == rg.R0
			onBottom := i == rg.R1
			onLeft := j == rg.C0
			onRight := j == rg.C1
			if (onTop || onBottom) && !isX {
				continue
			}
			if (onLeft || onRight) && isX {
				continue
			}
			p := Plaquette{I: i, J: j, IsX: isX, Corners: [4]int32{-1, -1, -1, -1}}
			type rc struct{ r, c int }
			corners := [4]rc{
				{i - 1, j - 1}, // NW
				{i - 1, j},     // NE
				{i, j - 1},     // SW
				{i, j},         // SE
			}
			for k, pos := range corners {
				if rg.Contains(pos.r, pos.c) {
					p.Corners[k] = l.Data(pos.r, pos.c)
					p.Weight++
				}
			}
			if p.Weight < 2 {
				continue // corner positions would be weight-1
			}
			p.Anc = l.ancAt(i, j)
			out = append(out, p)
		}
	}
	if len(out) != h*w-1 {
		return nil, fmt.Errorf("surface: region %+v produced %d stabilizers, want %d", rg, len(out), h*w-1)
	}
	return out, nil
}
