// Package decoder implements syndrome decoding for detector error models:
// a weighted union-find decoder (the workhorse), an exact minimum-weight
// matcher for small defect sets (validation oracle and "slow MWPM" stage),
// and a lookup-table decoder with a hierarchical LUT+MWPM latency model
// (paper §7.5).
package decoder

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"unsafe"

	"latticesim/internal/dem"
)

// graphBuilds counts BuildGraph invocations. Graph construction is one of
// the expensive per-spec build steps the sweep engine's artifact cache
// deduplicates; the counter lets cache tests assert that each unique spec
// builds its graph exactly once.
var graphBuilds atomic.Uint64

// GraphBuilds returns the number of BuildGraph calls made by this
// process. The difference across a workload measures how many graph
// constructions it actually performed.
func GraphBuilds() uint64 { return graphBuilds.Load() }

// Decoder predicts the logical-observable flip mask for a set of fired
// detectors.
type Decoder interface {
	Decode(defects []int) uint64
}

// Edge is a decoder-graph edge between two detector nodes, or between a
// detector and a virtual boundary node.
type Edge struct {
	A, B   int32 // node ids; B may be a virtual boundary node
	P      float64
	Weight float64
	Obs    uint64
}

// Graph is the matchable decoding graph derived from a DEM.
type Graph struct {
	NumDetectors int
	NumNodes     int // detectors + virtual boundary nodes
	Edges        []Edge
	Adj          [][]int32 // node -> incident edge indices

	// Undetectable accumulates probability mass of errors that flip
	// observables without firing any detector (irreducible error floor).
	Undetectable []UndetectableError

	// Stats about hyperedge decomposition quality.
	OversizedParts int // error parts with >2 same-type detectors (chain-split)
	ObsConflicts   int // parallel edges that disagreed on observable masks
}

// UndetectableError is an error mechanism invisible to all detectors.
type UndetectableError struct {
	P   float64
	Obs uint64
}

// IsBoundary reports whether node id is a virtual boundary node.
func (g *Graph) IsBoundary(n int32) bool { return int(n) >= g.NumDetectors }

// Bytes estimates the graph's heap size: its edges, adjacency lists and
// undetectable-error list.
func (g *Graph) Bytes() int64 {
	n := int64(unsafe.Sizeof(*g)) +
		int64(cap(g.Edges))*int64(unsafe.Sizeof(Edge{})) +
		int64(cap(g.Adj))*int64(unsafe.Sizeof(g.Adj[0])) +
		int64(cap(g.Undetectable))*int64(unsafe.Sizeof(UndetectableError{}))
	for _, a := range g.Adj {
		n += int64(cap(a)) * 4
	}
	return n
}

// BuildGraph decomposes the DEM into a matchable graph. Errors are split
// into X-check and Z-check components (using the detector annotations);
// each component of size 1 becomes a boundary edge and size 2 a regular
// edge. Components larger than 2 (rare; counted in OversizedParts) are
// chain-split along the round coordinate. Observable flips are attached
// to the component whose check type protects that observable, determined
// by majority vote over single-component errors.
func BuildGraph(m *dem.Model) *Graph {
	graphBuilds.Add(1)
	g := &Graph{NumDetectors: m.NumDetectors, NumNodes: m.NumDetectors}

	isX := make([]bool, m.NumDetectors)
	round := make([]float64, m.NumDetectors)
	for _, di := range m.DetectorInfo {
		if di.Index < m.NumDetectors {
			isX[di.Index] = di.IsXCheck()
			round[di.Index] = float64(di.Round())
		}
	}

	obsOnX := voteObservableTypes(m, isX)

	type edgeKey struct{ a, b int32 }
	merged := make(map[edgeKey]int) // -> index into g.Edges

	addEdge := func(a, b int32, p float64, obs uint64) {
		if a > b {
			a, b = b, a
		}
		k := edgeKey{a, b}
		if idx, ok := merged[k]; ok {
			e := &g.Edges[idx]
			if e.Obs != obs && p > 0 {
				g.ObsConflicts++
				if p > e.P {
					e.Obs = obs
				}
			}
			e.P = e.P*(1-p) + p*(1-e.P)
			return
		}
		merged[k] = len(g.Edges)
		g.Edges = append(g.Edges, Edge{A: a, B: b, P: p, Obs: obs})
	}

	newBoundary := func() int32 {
		id := int32(g.NumNodes)
		g.NumNodes++
		return id
	}
	// One shared virtual boundary per (detector) endpoint keeps parallel
	// boundary edges mergeable; allocate lazily per detector.
	boundaryOf := make(map[int32]int32)
	boundaryFor := func(det int32) int32 {
		if b, ok := boundaryOf[det]; ok {
			return b
		}
		b := newBoundary()
		boundaryOf[det] = b
		return b
	}

	for _, e := range m.Errors {
		if len(e.Detectors) == 0 {
			if e.Obs != 0 {
				g.Undetectable = append(g.Undetectable, UndetectableError{P: e.P, Obs: e.Obs})
			}
			continue
		}
		var xs, zs []int32
		for _, d := range e.Detectors {
			if isX[d] {
				xs = append(xs, d)
			} else {
				zs = append(zs, d)
			}
		}
		// Distribute each observable bit to the matching component.
		var obsX, obsZ uint64
		for o := 0; o < m.NumObservables; o++ {
			bit := e.Obs & (1 << uint(o))
			if bit == 0 {
				continue
			}
			switch {
			case obsOnX[o] && len(xs) > 0:
				obsX |= bit
			case !obsOnX[o] && len(zs) > 0:
				obsZ |= bit
			case len(xs) > 0:
				obsX |= bit
			default:
				obsZ |= bit
			}
		}
		g.emitComponent(xs, e.P, obsX, round, addEdge, boundaryFor)
		g.emitComponent(zs, e.P, obsZ, round, addEdge, boundaryFor)
	}

	for i := range g.Edges {
		g.Edges[i].Weight = edgeWeight(g.Edges[i].P)
	}

	g.Adj = make([][]int32, g.NumNodes)
	for i, e := range g.Edges {
		g.Adj[e.A] = append(g.Adj[e.A], int32(i))
		g.Adj[e.B] = append(g.Adj[e.B], int32(i))
	}
	return g
}

// emitComponent turns one same-type detector set into one or more edges.
func (g *Graph) emitComponent(dets []int32, p float64, obs uint64, round []float64,
	addEdge func(a, b int32, p float64, obs uint64), boundaryFor func(int32) int32) {
	switch len(dets) {
	case 0:
		if obs != 0 {
			g.Undetectable = append(g.Undetectable, UndetectableError{P: p, Obs: obs})
		}
	case 1:
		addEdge(dets[0], boundaryFor(dets[0]), p, obs)
	case 2:
		addEdge(dets[0], dets[1], p, obs)
	default:
		g.OversizedParts++
		ds := append([]int32(nil), dets...)
		sort.Slice(ds, func(i, j int) bool { return round[ds[i]] < round[ds[j]] })
		for i := 0; i+1 < len(ds); i += 2 {
			o := uint64(0)
			if i == 0 {
				o = obs
			}
			addEdge(ds[i], ds[i+1], p, o)
		}
		if len(ds)%2 == 1 {
			last := ds[len(ds)-1]
			addEdge(last, boundaryFor(last), p, 0)
		}
	}
}

// voteObservableTypes decides, for each observable, whether it is
// protected by X-type checks (true) or Z-type checks (false), by majority
// vote over errors whose detectors are all one type.
func voteObservableTypes(m *dem.Model, isX []bool) []bool {
	votesX := make([]int, m.NumObservables)
	votesZ := make([]int, m.NumObservables)
	for _, e := range m.Errors {
		if e.Obs == 0 || len(e.Detectors) == 0 {
			continue
		}
		allX, allZ := true, true
		for _, d := range e.Detectors {
			if isX[d] {
				allZ = false
			} else {
				allX = false
			}
		}
		for o := 0; o < m.NumObservables; o++ {
			if e.Obs&(1<<uint(o)) == 0 {
				continue
			}
			if allX {
				votesX[o]++
			} else if allZ {
				votesZ[o]++
			}
		}
	}
	out := make([]bool, m.NumObservables)
	for o := range out {
		out[o] = votesX[o] >= votesZ[o]
	}
	return out
}

// edgeWeight converts an edge probability to a matching weight
// ln((1-p)/p), clamped to keep the graph well-behaved for p near 0 or 1/2.
func edgeWeight(p float64) float64 {
	const (
		minP = 1e-12
		maxP = 0.499
	)
	if p < minP {
		p = minP
	}
	if p > maxP {
		p = maxP
	}
	return math.Log((1 - p) / p)
}

// CheckMatchable verifies that every node reached by edges exists and
// returns an error describing the first inconsistency.
func (g *Graph) CheckMatchable() error {
	for i, e := range g.Edges {
		if e.A < 0 || int(e.A) >= g.NumNodes || e.B < 0 || int(e.B) >= g.NumNodes {
			return fmt.Errorf("edge %d endpoints (%d,%d) out of range %d", i, e.A, e.B, g.NumNodes)
		}
		if e.A == e.B {
			return fmt.Errorf("edge %d is a self loop on %d", i, e.A)
		}
	}
	return nil
}
