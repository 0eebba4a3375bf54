package decoder

import (
	"math"
)

// UnionFind is a weighted union-find (cluster-growth + peeling) decoder
// in the style of Delfosse–Nickerson, operating on a decoder Graph.
// It is the repository's primary decoder, standing in for MWPM.
//
// A UnionFind instance is reusable across shots but not safe for
// concurrent use; create one per goroutine.
//
// All per-shot working state lives in scratch retained across Decode
// calls (DESIGN.md §9): flat cluster labels relabelled on fusion through
// per-cluster member lists, frontier lists in one flat arena, an active
// list carried from sweep to sweep, a per-edge sweep stamp for the
// fast-forward jump, and intrusive per-node lists for the peel. In
// steady state — once the scratch has grown to the workload's
// high-water mark — Decode performs no heap allocations (see
// TestUnionFindDecodeAllocFree).
type UnionFind struct {
	g *Graph

	// es packs every per-edge field the grow inner loop touches — scaled
	// integer weight, accumulated growth and the last sweep that grew
	// the edge — into one struct, so a frontier-entry visit costs one
	// cache line instead of three scattered array reads. An edge is
	// fully grown exactly when grown >= w.
	es []edgeState

	// adj packs every node's incident (edge index << 32 | far endpoint)
	// entries into one block; node n's are adj[adjOff[n]:adjOff[n+1]].
	// A frontier entry's origin node stays inside its cluster forever
	// (clusters only merge), so the far endpoint alone decides
	// incidence, and the grow inner loop never loads an Edge.
	adj    []int64
	adjOff []int32

	// root is each node's cluster label — the cluster's root node — and
	// -1 outside the working set. next threads each cluster's members
	// into a list headed by its root; a fusion relabels the smaller
	// cluster's members and splices its list into the larger one's, so
	// a label lookup is one load.
	root []int32
	next []int32
	cl   []cluster // per root

	defect  []bool
	touched []int32 // nodes in the working set, in order of arrival
	tEdges  []int32 // edges with nonzero growth, in order of first growth

	// frArena holds every cluster's frontier block (cluster.fr). It is
	// bump-allocated per decode and truncated on reset, so its capacity
	// is reused across shots.
	frArena []int64

	active []int32 // odd, boundaryless roots, by first defect
	sweep  int32   // current sweep stamp (edgeState.sweep)

	// Peel scratch: head[n] starts node n's list of fully grown edges
	// inside links; order is the BFS of one cluster's tree.
	head  []int32
	links []peelLink
	order []peelStep
}

// span addresses one frontier block inside the arena: elements
// [off, off+n), with room to grow in place up to off+cap.
type span struct {
	off, n, cap int32
}

// edgeState is the per-edge working state of weighted growth: w is the
// scaled integer weight (>=1), grown the accumulated growth units, and
// sweep the stamp of the last sweep that grew the edge, which tells a
// second growth in the same sweep (both sides growing) from a first.
type edgeState struct {
	w     int32
	grown int32
	sweep int32
}

// cluster is the state of one cluster, stored at its root.
type cluster struct {
	fr       span  // frontier block in frArena
	size     int32 // member count
	first    int32 // position in the defect list of its first defect
	peelRoot int32 // lowest boundary member, else lowest member
	parity   uint8 // defect parity
}

// peelLink is one entry of a node's list of fully grown edges: the
// edge, its other endpoint and the next entry (-1 ends the list).
type peelLink struct {
	edge, far, next int32
}

// peelStep is one BFS tree entry: node plus the edge and node it was
// discovered through.
type peelStep struct {
	node       int32
	parentEdge int32
	parentNode int32
}

// weightScale converts float weights to growth units. Larger values give
// finer weighted-growth resolution at more iterations.
const weightScale = 4.0

// NewUnionFind prepares a decoder for the graph.
func NewUnionFind(g *Graph) *UnionFind {
	n := g.NumNodes
	d := &UnionFind{
		g:      g,
		es:     make([]edgeState, len(g.Edges)),
		adjOff: make([]int32, n+1),
		root:   make([]int32, n),
		next:   make([]int32, n),
		cl:     make([]cluster, n),
		defect: make([]bool, n),
		head:   make([]int32, n),
	}
	for i, e := range g.Edges {
		w := int32(math.Round(e.Weight * weightScale))
		if w < 1 {
			w = 1
		}
		d.es[i].w = w
	}
	total := int32(0)
	for v, adj := range g.Adj {
		d.adjOff[v] = total
		total += int32(len(adj))
	}
	d.adjOff[n] = total
	d.adj = make([]int64, 0, total)
	for v, adj := range g.Adj {
		for _, ei := range adj {
			e := g.Edges[ei]
			far := e.A
			if far == int32(v) {
				far = e.B
			}
			d.adj = append(d.adj, int64(ei)<<32|int64(far))
		}
	}
	for v := range d.root {
		d.root[v] = -1
	}
	return d
}

// initNode brings a node into the decode working set as a singleton
// cluster whose frontier is the node's incident edges.
func (d *UnionFind) initNode(n int32) {
	if d.root[n] >= 0 {
		return
	}
	d.root[n] = n
	d.next[n] = -1
	d.defect[n] = false
	d.head[n] = -1
	off := int32(len(d.frArena))
	d.frArena = append(d.frArena, d.adj[d.adjOff[n]:d.adjOff[n+1]]...)
	deg := int32(len(d.frArena)) - off
	d.cl[n] = cluster{fr: span{off: off, n: deg, cap: deg}, size: 1, first: math.MaxInt32, peelRoot: n}
	d.touched = append(d.touched, n)
}

// frConcat appends rb's frontier block onto ra's, preserving element
// order exactly as append(frontier[ra], frontier[rb]...) would: ra's
// entries first, then rb's. Blocks that outgrow their reserved capacity
// relocate to the arena tail with headroom, mirroring append's amortized
// growth.
func (d *UnionFind) frConcat(ca, cb *cluster) {
	sa, sb := ca.fr, cb.fr
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
		sa = span{off: off, n: total, cap: capN}
	}
	ca.fr = sa
	cb.fr = span{}
}

// fuse unions the distinct clusters containing nodes a and b: union by
// size, ties to a's cluster, which keeps its label.
func (d *UnionFind) fuse(a, b int32) {
	d.initNode(a)
	d.initNode(b)
	ra, rb := d.root[a], d.root[b]
	if d.cl[ra].size < d.cl[rb].size {
		ra, rb = rb, ra
	}
	last := rb
	for m := rb; m >= 0; m = d.next[m] {
		d.root[m] = ra
		last = m
	}
	d.next[last] = d.next[ra]
	d.next[ra] = rb
	ca, cb := &d.cl[ra], &d.cl[rb]
	ca.size += cb.size
	ca.parity ^= cb.parity
	ca.first = min(ca.first, cb.first)
	// Boundary nodes (ids >= NumDetectors) come first, lowest first,
	// then detectors, lowest first: one unsigned comparison after
	// rotating the ids by NumDetectors.
	nd := int32(d.g.NumDetectors)
	if uint32(cb.peelRoot-nd) < uint32(ca.peelRoot-nd) {
		ca.peelRoot = cb.peelRoot
	}
	d.frConcat(ca, cb)
}

// keepActive rewrites the cluster labels of roots in place into the
// active list: the current labels of those clusters that are odd and
// boundaryless, each once, ordered by their first defect.
func (d *UnionFind) keepActive(roots []int32) []int32 {
	n := 0
	for _, r := range roots {
		r = d.root[r]
		c := &d.cl[r]
		if c.parity == 0 || d.g.IsBoundary(c.peelRoot) {
			continue
		}
		j := n
		for j > 0 && d.cl[roots[j-1]].first > c.first {
			j--
		}
		if j > 0 && roots[j-1] == r {
			continue // already listed: one key per cluster
		}
		copy(roots[j+1:n+1], roots[j:n])
		roots[j] = r
		n++
	}
	return roots[:n]
}

// Decode returns the predicted observable-flip mask for the fired
// detectors.
func (d *UnionFind) Decode(defects []int) uint64 {
	if len(defects) == 0 {
		return 0
	}
	obs := d.run(defects)
	d.reset()
	return obs
}

// run decodes a non-empty defect set and leaves its working set in place
// for the caller to read before reset.
func (d *UnionFind) run(defects []int) uint64 {
	seeds := d.active[:0]
	for i, n := range defects {
		v := int32(n)
		d.initNode(v)
		d.defect[v] = true
		c := &d.cl[v]
		c.parity ^= 1
		c.first = min(c.first, int32(i))
		seeds = append(seeds, v)
	}
	d.active = d.keepActive(seeds)
	d.grow()
	return d.peel()
}

// nextSweep advances the sweep stamp. Before the counter would wrap, it
// clears every edge's stamp, so a stale stamp never reads as current.
func (d *UnionFind) nextSweep() int32 {
	if d.sweep == math.MaxInt32 {
		for i := range d.es {
			d.es[i].sweep = 0
		}
		d.sweep = 0
	}
	d.sweep++
	return d.sweep
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
// nothing, it knows how many more such identical sweeps would pass
// before the first edge completes (the running minimum k) and applies
// their growth in one walk over the active frontiers, so the sweep
// count is proportional to the number of fusion events rather than to
// the integer edge weights. The jump lands exactly on the state the
// unit-growth dynamics would reach, so decode results are bit-identical
// (TestUnionFindMatchesReference and TestUnionFindGolden cover this).
//
// Only a fusion changes a cluster, and every fusion involves a cluster
// of the active list, so the next sweep's active list is this one's
// clusters under their new labels, filtered and ordered by first
// defect: the order a walk over the defects in input order would find
// them in.
func (d *UnionFind) grow() {
	active := d.active
	for len(active) > 0 {
		sweep := d.nextSweep()
		k := int32(math.MaxInt32)
		fusedAny := false
		for _, r := range active {
			if d.root[r] != r {
				continue // fused into another cluster earlier this sweep
			}
			// Grow every frontier edge of this cluster by one unit. Stale
			// entries (fully grown, internal, or inherited from old
			// fusions) are swap-removed. At most one fusion happens per
			// cluster per sweep: the span is written back first so the
			// fuse can safely concatenate blocks.
			s := d.cl[r].fr
			arena := d.frArena[s.off : s.off+s.n]
			fused := false
			for i := int32(0); i < s.n; {
				pk := arena[i]
				ei := int32(pk >> 32)
				es := &d.es[ei]
				// The entry's origin node is in r by construction, so the
				// edge is incident exactly when the far endpoint is not.
				if es.grown >= es.w || d.root[int32(pk)] == r {
					s.n--
					arena[i] = arena[s.n]
					continue
				}
				if es.grown == 0 {
					d.tEdges = append(d.tEdges, ei)
				}
				es.grown++
				rate := int32(1)
				if es.sweep == sweep {
					rate = 2 // the far side grew it this sweep too
				}
				es.sweep = sweep
				if es.grown >= es.w {
					s.n--
					arena[i] = arena[s.n]
					d.cl[r].fr = s
					e := &d.g.Edges[ei]
					d.fuse(e.A, e.B)
					fused = true
					break
				}
				// Sweeps until this edge completes if nothing fuses
				// first; its first visit in a two-sided sweep
				// overestimates, and the second one sets the minimum.
				k = min(k, (es.w-es.grown+rate-1)/rate)
				i++
			}
			if fused {
				fusedAny = true
			} else {
				d.cl[r].fr = s
			}
		}
		if fusedAny {
			active = d.keepActive(active)
			continue
		}
		if k == math.MaxInt32 {
			// Nothing grew: a disconnected odd cluster with an exhausted
			// frontier; there is nothing more the decoder can do.
			break
		}
		// Nothing fused: every following sweep repeats this one's
		// increments verbatim until an edge completes, k sweeps from
		// now. Fast-forward to just before it (the completing sweep
		// itself runs for real, preserving in-sweep fusion order): each
		// frontier entry is one unit of growth per sweep.
		if k > 1 {
			for _, r := range active {
				s := d.cl[r].fr
				for _, pk := range d.frArena[s.off : s.off+s.n] {
					d.es[int32(pk>>32)].grown += k - 1
				}
			}
		}
	}
	d.active = active
}

// peel extracts a correction from the grown clusters by leaf peeling.
// Every fully grown edge fused two distinct clusters, so each cluster's
// fully grown edges form a tree, and its correction — the edges whose
// far side holds an odd number of defects — is unique once the tree is
// rooted. The root is the cluster's lowest-numbered boundary node (so
// leftover parity can leave through it), else its lowest-numbered node:
// a canonical choice that makes the correction a deterministic function
// of the defect set.
func (d *UnionFind) peel() uint64 {
	links := d.links[:0]
	for _, ei := range d.tEdges {
		if es := &d.es[ei]; es.grown < es.w {
			continue
		}
		e := &d.g.Edges[ei]
		links = append(links, peelLink{edge: ei, far: e.B, next: d.head[e.A]})
		d.head[e.A] = int32(len(links) - 1)
		links = append(links, peelLink{edge: ei, far: e.A, next: d.head[e.B]})
		d.head[e.B] = int32(len(links) - 1)
	}
	d.links = links

	var obs uint64
	for _, r := range d.touched {
		if d.root[r] != r || d.cl[r].size == 1 {
			continue
		}
		root := d.cl[r].peelRoot
		order := append(d.order[:0], peelStep{node: root, parentEdge: -1, parentNode: -1})
		for i := 0; i < len(order); i++ {
			st := order[i]
			for h := d.head[st.node]; h >= 0; h = links[h].next {
				if l := links[h]; l.edge != st.parentEdge {
					order = append(order, peelStep{node: l.far, parentEdge: l.edge, parentNode: st.node})
				}
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
	return obs
}

// reset clears the per-shot state touched by the last decode. Fields
// that initNode rewrites, and edge sweep stamps, need no clearing.
func (d *UnionFind) reset() {
	for _, n := range d.touched {
		d.root[n] = -1
	}
	d.touched = d.touched[:0]
	d.frArena = d.frArena[:0]
	for _, ei := range d.tEdges {
		d.es[ei].grown = 0
	}
	d.tEdges = d.tEdges[:0]
}
