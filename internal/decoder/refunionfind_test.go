package decoder

// This file keeps the union-find decoder as it stood before the
// flat-label rewrite — cluster labels by path-compressed find, a fresh
// active list per sweep, per-sweep delta bookkeeping for the
// fast-forward jump and a two-pass spanning-tree peel — verbatim except
// for renamed identifiers. It is the oracle of
// TestUnionFindMatchesReference: the production decoder must return its
// prediction for every defect set. It shares weightScale with the
// production decoder, so a change of the weight resolution moves both
// and is caught by TestUnionFindGolden instead.

import (
	"math"
)

// refUnionFind is a weighted union-find (cluster-growth + peeling) decoder
// in the style of Delfosse–Nickerson, operating on a decoder Graph.
// It is the repository's primary decoder, standing in for MWPM.
//
// A refUnionFind instance is reusable across shots but not safe for
// concurrent use; create one per goroutine.
//
// All per-shot working state lives in scratch retained across Decode
// calls: frontier lists occupy one flat arena (spans per cluster root,
// concatenated on fusion with the exact semantics of slice appends), and
// the peeling stage runs on stamped arrays instead of maps. In steady
// state — once the scratch has grown to the workload's high-water mark —
// Decode performs no heap allocations (see TestUnionFindDecodeAllocFree).
type refUnionFind struct {
	g *Graph

	// es packs every per-edge field the grow inner loop touches — scaled
	// integer weight, accumulated growth, last-sweep increment (the
	// fast-forward bookkeeping) and the done flag — into one 16-byte
	// struct, so a frontier-entry visit costs one cache line instead of
	// four scattered array reads.
	es []refEdgeState

	parent   []int32
	size     []int32
	parity   []uint8 // per root: defect parity
	boundary []bool  // per root: cluster contains a virtual boundary node

	// Frontier lists live in one flat arena: frSpan[n] addresses node n's
	// block inside frArena. Entries are packed (edge index << 32 | far
	// endpoint), precomputed per node in adjPacked: a frontier entry's
	// origin node stays inside its cluster forever (clusters only merge),
	// so the far endpoint alone decides incidence — one find per entry
	// instead of two, and no Edge load in the grow inner loop. The arena
	// is bump-allocated per decode and truncated on reset, so its
	// capacity is reused across shots.
	frSpan    []refSpan
	frArena   []int64
	adjPacked [][]int64

	inited  []bool
	defect  []bool
	touched []int32 // nodes whose state must be reset
	tEdges  []int32 // edges whose growth must be reset

	stamp    []int32 // dedup stamps for active-root collection
	stampGen int32

	active []int32 // grow scratch: odd, boundaryless roots this sweep

	// Fast-forward scratch: edges whose delta field is nonzero after the
	// last sweep (see grow).
	deltaTouched []int32

	// Peeling scratch: per-node incident fully-grown edges plus BFS
	// buffers, all stamped or truncate-reset so nothing reallocates in
	// steady state.
	peelAdj   [][]int32
	peelNodes []int32
	comp      []int32
	order     []refPeelStep
	seen      []int32
	seenGen   int32
}

// refSpan addresses one frontier block inside the arena: elements
// [off, off+n), with room to grow in place up to off+cap.
type refSpan struct {
	off, n, cap int32
}

// refEdgeState is the per-edge working state of weighted growth: w is the
// scaled integer weight (>=1), grown the accumulated growth units,
// delta the increment observed in the last sweep (fast-forward
// bookkeeping), done whether the edge is fully grown.
type refEdgeState struct {
	w     int32
	grown int32
	delta int32
	done  bool
}

// refPeelStep is one BFS spanning-tree entry: node plus the edge and node it
// was discovered through.
type refPeelStep struct {
	node       int32
	parentEdge int32
	parentNode int32
}

// newRefUnionFind prepares a decoder for the graph.
func newRefUnionFind(g *Graph) *refUnionFind {
	d := &refUnionFind{
		g:        g,
		es:       make([]refEdgeState, len(g.Edges)),
		parent:   make([]int32, g.NumNodes),
		size:     make([]int32, g.NumNodes),
		parity:   make([]uint8, g.NumNodes),
		boundary: make([]bool, g.NumNodes),
		frSpan:   make([]refSpan, g.NumNodes),
		inited:   make([]bool, g.NumNodes),
		defect:   make([]bool, g.NumNodes),
		stamp:    make([]int32, g.NumNodes),
		peelAdj:  make([][]int32, g.NumNodes),
		seen:     make([]int32, g.NumNodes),
	}
	for i, e := range g.Edges {
		w := int32(math.Round(e.Weight * weightScale))
		if w < 1 {
			w = 1
		}
		d.es[i].w = w
	}
	d.adjPacked = make([][]int64, g.NumNodes)
	for n := range d.adjPacked {
		adj := g.Adj[n]
		packed := make([]int64, len(adj))
		for i, ei := range adj {
			e := g.Edges[ei]
			far := e.A
			if far == int32(n) {
				far = e.B
			}
			packed[i] = int64(ei)<<32 | int64(far)
		}
		d.adjPacked[n] = packed
	}
	return d
}

func (d *refUnionFind) find(n int32) int32 {
	root := n
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[n] != root {
		d.parent[n], n = root, d.parent[n]
	}
	return root
}

// frInit bump-allocates node n's frontier block and fills it with the
// node's incident (edge, far endpoint) entries.
func (d *refUnionFind) frInit(n int32) {
	adj := d.adjPacked[n]
	off := int32(len(d.frArena))
	d.frArena = append(d.frArena, adj...)
	d.frSpan[n] = refSpan{off: off, n: int32(len(adj)), cap: int32(len(adj))}
}

// frConcat appends rb's frontier block onto ra's, preserving element
// order exactly as append(frontier[ra], frontier[rb]...) would: ra's
// entries first, then rb's. Blocks that outgrow their reserved capacity
// relocate to the arena tail with headroom, mirroring append's amortized
// growth.
func (d *refUnionFind) frConcat(ra, rb int32) {
	sa, sb := d.frSpan[ra], d.frSpan[rb]
	switch {
	case sb.n == 0:
	case sa.cap-sa.n >= sb.n:
		copy(d.frArena[sa.off+sa.n:], d.frArena[sb.off:sb.off+sb.n])
		sa.n += sb.n
	default:
		total := sa.n + sb.n
		capN := total + total/2
		off := int32(len(d.frArena))
		d.frArena = append(d.frArena, d.frArena[sa.off:sa.off+sa.n]...)
		d.frArena = append(d.frArena, d.frArena[sb.off:sb.off+sb.n]...)
		d.frArena = append(d.frArena, make([]int64, capN-total)...)
		sa = refSpan{off: off, n: total, cap: capN}
	}
	d.frSpan[ra] = sa
	d.frSpan[rb] = refSpan{}
}

// initNode lazily brings a node into the decode working set.
func (d *refUnionFind) initNode(n int32) {
	if d.inited[n] {
		return
	}
	d.inited[n] = true
	d.parent[n] = n
	d.size[n] = 1
	d.parity[n] = 0
	d.boundary[n] = d.g.IsBoundary(n)
	d.frInit(n)
	d.touched = append(d.touched, n)
}

// fuse unions the clusters containing nodes a and b.
func (d *refUnionFind) fuse(a, b int32) {
	d.initNode(a)
	d.initNode(b)
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	d.parity[ra] ^= d.parity[rb]
	d.boundary[ra] = d.boundary[ra] || d.boundary[rb]
	d.frConcat(ra, rb)
}

// Decode returns the predicted observable-flip mask for the fired
// detectors.
func (d *refUnionFind) Decode(defects []int) uint64 {
	if len(defects) == 0 {
		return 0
	}
	for _, n := range defects {
		nn := int32(n)
		d.initNode(nn)
		d.defect[nn] = true
		d.parity[d.find(nn)] ^= 1
	}

	d.grow(defects)
	obs := d.peel()
	d.reset()
	return obs
}

// grow runs weighted cluster growth until every cluster is neutral
// (even parity or touching a boundary node).
//
// The reference dynamics grow every frontier edge of every active
// cluster by one unit per sweep; with log-likelihood weights scaled by
// weightScale an edge needs tens of sweeps to complete, and between two
// fusion events every sweep is identical — the active set, the pruned
// frontiers and the per-edge increments cannot change until a fusion
// changes the topology. grow exploits that: after a sweep that fused
// nothing, it computes how many more such identical sweeps would pass
// before the first edge completes and applies their growth in one jump,
// so the sweep count is proportional to the number of fusion events
// rather than to the integer edge weights. The jump lands exactly on the
// state the unit-growth dynamics would reach, so decode results are
// bit-identical (TestUnionFindDeterministic, and the LER equivalence
// tests in internal/mc, cover this).
func (d *refUnionFind) grow(defects []int) {
	for {
		active := d.active[:0]
		d.stampGen++
		for _, n := range defects {
			r := d.find(int32(n))
			if d.stamp[r] == d.stampGen {
				continue
			}
			d.stamp[r] = d.stampGen
			if d.parity[r] == 1 && !d.boundary[r] {
				active = append(active, r)
			}
		}
		d.active = active
		if len(active) == 0 {
			return
		}
		progress := false
		anyFused := false
		deltas := d.deltaTouched[:0]
		for _, r := range active {
			if d.find(r) != r {
				continue // fused earlier this sweep
			}
			// Grow every frontier edge of this cluster by one unit. Stale
			// entries (done, internal, or inherited from old fusions) are
			// swap-removed. At most one fusion happens per cluster per
			// sweep: the refSpan is written back first so the fuse can safely
			// concatenate blocks.
			s := d.frSpan[r]
			i := int32(0)
			fused := false
			for i < s.n {
				pk := d.frArena[s.off+i]
				ei := int32(pk >> 32)
				far := int32(pk)
				es := &d.es[ei]
				// The entry's origin node is in r by construction, so the
				// edge is incident exactly when the far endpoint is not.
				incident := !es.done &&
					(!d.inited[far] || d.find(far) != r)
				if !incident {
					s.n--
					d.frArena[s.off+i] = d.frArena[s.off+s.n]
					continue
				}
				if es.grown == 0 {
					d.tEdges = append(d.tEdges, ei)
				}
				es.grown++
				if es.delta == 0 {
					deltas = append(deltas, ei)
				}
				es.delta++
				progress = true
				if es.grown >= es.w {
					e := d.g.Edges[ei]
					es.done = true
					s.n--
					d.frArena[s.off+i] = d.frArena[s.off+s.n]
					d.frSpan[r] = s
					d.fuse(e.A, e.B)
					fused = true
					anyFused = true
					break
				}
				i++
			}
			if !fused {
				d.frSpan[r] = s
			}
		}
		d.deltaTouched = deltas
		if !anyFused && progress {
			// Nothing fused: every following sweep repeats this one's
			// increments verbatim until an edge completes. The first
			// completion happens ceil(remaining/delta) sweeps from now;
			// fast-forward to just before it (the completing sweep itself
			// runs for real, preserving in-sweep fusion order).
			k := int32(1<<31 - 1)
			for _, ei := range deltas {
				es := &d.es[ei]
				rem := es.w - es.grown
				if ke := (rem + es.delta - 1) / es.delta; ke < k {
					k = ke
				}
			}
			if k > 1 {
				for _, ei := range deltas {
					es := &d.es[ei]
					es.grown += (k - 1) * es.delta
				}
			}
		}
		for _, ei := range d.deltaTouched {
			d.es[ei].delta = 0
		}
		d.deltaTouched = d.deltaTouched[:0]
		if !progress {
			// Disconnected odd cluster with an exhausted frontier; there
			// is nothing more the decoder can do.
			return
		}
	}
}

// peel extracts a correction from the grown clusters by leaf peeling on a
// spanning forest of the fully-grown edges. Each connected component is
// rooted at its lowest-numbered boundary node (so leftover parity can
// leave through it), else its lowest-numbered node — a canonical choice
// that makes the correction a deterministic function of the defect set.
func (d *refUnionFind) peel() uint64 {
	// Group fully-grown edges by incident node (tEdges order, so the
	// construction is deterministic).
	nodes := d.peelNodes[:0]
	for _, ei := range d.tEdges {
		if !d.es[ei].done {
			continue
		}
		e := d.g.Edges[ei]
		if len(d.peelAdj[e.A]) == 0 {
			nodes = append(nodes, e.A)
		}
		d.peelAdj[e.A] = append(d.peelAdj[e.A], ei)
		if len(d.peelAdj[e.B]) == 0 {
			nodes = append(nodes, e.B)
		}
		d.peelAdj[e.B] = append(d.peelAdj[e.B], ei)
	}
	d.peelNodes = nodes

	var obs uint64
	d.stampGen++
	compGen := d.stampGen
	for _, start := range nodes {
		if d.stamp[start] == compGen {
			continue
		}
		// Pass 1: collect the connected component and pick its root.
		comp := d.comp[:0]
		comp = append(comp, start)
		d.stamp[start] = compGen
		root := int32(-1)
		rootBoundary := false
		for i := 0; i < len(comp); i++ {
			n := comp[i]
			if b := d.g.IsBoundary(n); b == rootBoundary {
				if root < 0 || n < root {
					root = n
				}
			} else if b {
				root = n
				rootBoundary = true
			}
			for _, ei := range d.peelAdj[n] {
				e := d.g.Edges[ei]
				next := e.A
				if next == n {
					next = e.B
				}
				if d.stamp[next] != compGen {
					d.stamp[next] = compGen
					comp = append(comp, next)
				}
			}
		}
		d.comp = comp
		// Pass 2: BFS spanning tree from the root.
		d.seenGen++
		order := d.order[:0]
		order = append(order, refPeelStep{node: root, parentEdge: -1, parentNode: -1})
		d.seen[root] = d.seenGen
		for i := 0; i < len(order); i++ {
			n := order[i].node
			for _, ei := range d.peelAdj[n] {
				e := d.g.Edges[ei]
				next := e.A
				if next == n {
					next = e.B
				}
				if d.seen[next] == d.seenGen {
					continue
				}
				d.seen[next] = d.seenGen
				order = append(order, refPeelStep{node: next, parentEdge: ei, parentNode: n})
			}
		}
		d.order = order
		// Peel leaves towards the root.
		for i := len(order) - 1; i > 0; i-- {
			st := order[i]
			if d.defect[st.node] {
				d.defect[st.node] = false
				d.defect[st.parentNode] = !d.defect[st.parentNode]
				obs ^= d.g.Edges[st.parentEdge].Obs
			}
		}
		// A leftover defect at a boundary root exits through the
		// boundary; at a real root it means an unmatched defect, which is
		// simply left uncorrected.
		d.defect[root] = false
	}
	for _, n := range d.peelNodes {
		d.peelAdj[n] = d.peelAdj[n][:0]
	}
	return obs
}

// reset clears all per-shot state touched by the last Decode.
func (d *refUnionFind) reset() {
	for _, n := range d.touched {
		d.inited[n] = false
		d.defect[n] = false
		d.frSpan[n] = refSpan{}
	}
	d.touched = d.touched[:0]
	d.frArena = d.frArena[:0]
	for _, ei := range d.tEdges {
		d.es[ei].grown = 0
		d.es[ei].done = false
	}
	d.tEdges = d.tEdges[:0]
}
