package decoder

import (
	"math"
	"sync/atomic"
)

// Sliding-window predecoder (DESIGN.md §13).
//
// At the low error rates the paper's figures live at, a large share of
// syndromes are a scatter of independent single-mechanism errors: an
// isolated adjacent defect pair (a two-detector mechanism) or a lone
// defect next to a boundary. Decoding those through the full union-find
// machinery — growth sweeps, fusion, peeling — costs microseconds for
// answers that never change. The predecoder slides over the
// time-ordered defect list, greedily matches defects that are adjacent
// in the decoder graph, and — when the *whole* syndrome decomposes into
// such memoized units — answers with a pure XOR of precomputed
// predictions, no union-find at all. Anything non-trivial falls through
// to the full decoder untouched, paying only the matching probe.
//
// Bit-identity is by construction, not by approximation. For every
// detector–detector edge (pair unit) and every detector (singleton
// unit) the predecoder memoizes (a) the exact union-find prediction
// for that defect set in isolation and (b) its influence closure: every
// node the isolated run touches (initialized nodes plus both endpoints
// of every edge it grows). Union-find clusters interact only through
// shared nodes, so when the closures of units covering all defects are
// pairwise disjoint, the full decode provably decomposes into the XOR
// of the per-unit answers (the decomposition argument is spelled out in
// DESIGN.md §13; TestPredecodedMatchesUnionFind fuzzes it with a
// shrinker, and the differential harness gates the Monte Carlo
// integration on it). Any closure overlap — or any defect heavier than
// the attempt gate — takes the fall-through path, so a failed
// decomposition can cost a probe but never correctness.
//
// A unit's memo is filled the first time a decode needs it, not up
// front: a workload touches anywhere from 0.3% to nearly all of a
// graph's units, so an eager build either wastes most of its work or
// is what a lazy one converges to. Union-find resets every per-shot
// field after a decode, so a memo is a pure function of (graph,
// defects); whichever worker fills it first publishes the same bits.

// maxPredecodeWeight gates the decomposition attempt: syndromes with
// more defects go straight to the full decoder. Dense syndromes almost
// never decompose (their unit closures overlap), so probing them would
// tax exactly the shots that are already the most expensive; light
// syndromes are where the lookup path hits. The value is tuned on the
// d=7 memory workloads in BenchmarkPredecodedDecode.
const maxPredecodeWeight = 12

// Predecoder holds the per-graph tables: adjacency for pair matching
// plus per-unit memoized predictions and influence closures. Build one
// per decoder graph with NewPredecoder and share it across workers;
// per-worker state lives in Predecoded (see NewDecoder).
type Predecoder struct {
	g *Graph

	// nbr lists, per detector, the detector neighbours it can pair with:
	// nbr[u] = {v, edge} for every detector–detector edge (u,v). Order
	// follows the graph's edge order, making greedy matching
	// deterministic.
	nbr [][]pairCand

	// pair[e] memoizes UnionFind.Decode({A,B}) for detector–detector
	// edge e, with defects in ascending order; solo[v] memoizes
	// UnionFind.Decode({v}), the singleton unit backing unmatched
	// defects. A slot is nil until a decode first needs it, and is
	// written once (compare-and-swap from nil). Boundary edges' slots
	// stay nil: they can never be a defect pair.
	pair []atomic.Pointer[unitMemo]
	solo []atomic.Pointer[unitMemo]
}

// unitMemo is one unit's isolated union-find answer: its prediction
// and its influence closure (sorted, deduplicated). Immutable once
// published.
type unitMemo struct {
	pred uint64
	infl []int32
}

// pairCand is one matching candidate: defect v reachable via edge e.
type pairCand struct {
	v int32
	e int32
}

// NewPredecoder builds the pair-matching adjacency for the graph and
// empty unit-memo slots, which decodes fill on first use. It is safe to
// share across goroutines.
func NewPredecoder(g *Graph) *Predecoder {
	p := &Predecoder{
		g:    g,
		nbr:  make([][]pairCand, g.NumDetectors),
		pair: make([]atomic.Pointer[unitMemo], len(g.Edges)),
		solo: make([]atomic.Pointer[unitMemo], g.NumDetectors),
	}
	for ei, e := range g.Edges {
		if g.IsBoundary(e.A) || g.IsBoundary(e.B) {
			continue
		}
		p.nbr[e.A] = append(p.nbr[e.A], pairCand{v: e.B, e: int32(ei)})
		p.nbr[e.B] = append(p.nbr[e.B], pairCand{v: e.A, e: int32(ei)})
	}
	return p
}

// dedupNodes returns a sorted copy of nodes without duplicates, using
// the caller's scratch marker array (cleared before return).
func dedupNodes(nodes []int32, seen []bool) []int32 {
	out := make([]int32, 0, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range out {
		seen[n] = false
	}
	// Insertion sort: closures are small and nearly sorted already.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// decodeTouch is Decode plus influence instrumentation: it returns the
// prediction together with the run's influence closure — every node
// initialized by the run plus both endpoints of every edge it grew —
// appended to the caller's buffer. The closure may contain duplicates.
func (d *UnionFind) decodeTouch(defects []int, closure []int32) (uint64, []int32) {
	if len(defects) == 0 {
		return 0, closure
	}
	for _, n := range defects {
		nn := int32(n)
		d.initNode(nn)
		d.defect[nn] = true
		d.parity[d.find(nn)] ^= 1
	}
	d.grow(defects)
	obs := d.peel()
	closure = append(closure, d.touched...)
	for _, ei := range d.tEdges {
		e := d.g.Edges[ei]
		closure = append(closure, e.A, e.B)
	}
	d.reset()
	return obs, closure
}

// Predecoded is a per-worker decoder: the shared Predecoder tables, a
// private union-find fall-through, and private scratch. It produces
// exactly the fall-through decoder's output for every defect set. Not
// safe for concurrent use.
type Predecoded struct {
	t  *Predecoder
	uf *UnionFind

	// Per-shot scratch, generation-stamped so nothing is cleared between
	// shots.
	present []int32 // per detector: generation when it is a live defect
	pairOf  []int32 // per detector: index into pairs when matched
	inflGen []int32 // per node: generation when inside a stamped closure
	gen     int32
	pairs   []peeledPair

	// Memo-fill scratch: the unit's defects, the raw closure of its
	// isolated run, and dedupNodes' marks (allocated on the first fill).
	unit    [2]int
	closure []int32
	seen    []bool

	// Telemetry (observation only; not part of any result).
	shots int // decodes seen
	hits  int // syndromes answered by full decomposition
}

// peeledPair is one matched pair: its edge and defect endpoints, with a
// the earlier (lower) defect.
type peeledPair struct {
	e    int32
	a, b int32
}

// NewDecoder mints a per-worker predecoded decoder around a private
// union-find fall-through for the same graph.
func (p *Predecoder) NewDecoder(uf *UnionFind) *Predecoded {
	return &Predecoded{
		t:       p,
		uf:      uf,
		present: make([]int32, p.g.NumDetectors),
		pairOf:  make([]int32, p.g.NumDetectors),
		inflGen: make([]int32, p.g.NumNodes),
	}
}

// fill computes the memo of the unit with the given defects — its
// isolated UnionFind.Decode answer and influence closure, run on the
// worker's own fall-through — and publishes it to slot. A worker that
// loses the publication race returns the winner's memo, which holds the
// same bits.
func (d *Predecoded) fill(slot *atomic.Pointer[unitMemo], defects []int) *unitMemo {
	if d.seen == nil {
		d.seen = make([]bool, d.t.g.NumNodes)
	}
	pred, closure := d.uf.decodeTouch(defects, d.closure[:0])
	d.closure = closure
	m := &unitMemo{pred: pred, infl: dedupNodes(closure, d.seen)}
	if slot.CompareAndSwap(nil, m) {
		return m
	}
	return slot.Load()
}

// soloMemo returns the singleton unit memo of defect v, filling it on
// first use.
func (d *Predecoded) soloMemo(v int) *unitMemo {
	if m := d.t.solo[v].Load(); m != nil {
		return m
	}
	d.unit[0] = v
	return d.fill(&d.t.solo[v], d.unit[:1])
}

// pairMemo returns the memo of matched pair p, filling it on first use
// with the defects in ascending order.
func (d *Predecoded) pairMemo(p peeledPair) *unitMemo {
	if m := d.t.pair[p.e].Load(); m != nil {
		return m
	}
	d.unit[0], d.unit[1] = int(min(p.a, p.b)), int(max(p.a, p.b))
	return d.fill(&d.t.pair[p.e], d.unit[:2])
}

// EmptySyndromeFree marks the predecoded decoder: an empty defect set
// decodes to 0 with no side effects, like its union-find fall-through.
func (d *Predecoded) EmptySyndromeFree() bool { return true }

// Statser is implemented by decoders that expose cumulative
// (shots decoded, predecoder hits) tallies — currently *Predecoded.
// The Monte Carlo layer type-asserts it at shard boundaries to fold
// predecoder hit rates into its metric registry without depending on
// the concrete decoder type.
type Statser interface {
	Stats() (shots, hits int)
}

// Stats reports (shots decoded, full-decomposition hits) since
// construction, for benchmarks and tuning. Observation only.
func (d *Predecoded) Stats() (shots, hits int) {
	return d.shots, d.hits
}

// Decode predicts the observable-flip mask for the fired detectors,
// bit-identically to the union-find fall-through alone.
func (d *Predecoded) Decode(defects []int) uint64 {
	d.shots++
	n := len(defects)
	if n == 0 {
		return 0
	}
	if n == 1 {
		// A lone defect is the memoized singleton run itself.
		d.hits++
		return d.soloMemo(defects[0]).pred
	}
	if n > maxPredecodeWeight {
		return d.uf.Decode(defects)
	}
	if d.gen == math.MaxInt32 {
		// Generation wraparound (multi-billion-shot workers): clear every
		// stamp array once and restart the counter.
		clear(d.present)
		clear(d.inflGen)
		d.gen = 0
	}
	d.gen++
	gen := d.gen
	for _, u := range defects {
		d.present[u] = gen
		d.pairOf[u] = -1
	}

	// Slide over the time-ordered defect list, greedily matching each
	// unmatched defect with its first unmatched graph neighbour.
	pairs := d.pairs[:0]
	for _, u := range defects {
		if d.pairOf[u] >= 0 {
			continue
		}
		for _, c := range d.t.nbr[u] {
			if d.present[c.v] != gen || d.pairOf[c.v] >= 0 {
				continue
			}
			d.pairOf[u] = int32(len(pairs))
			d.pairOf[c.v] = int32(len(pairs))
			pairs = append(pairs, peeledPair{e: c.e, a: int32(u), b: c.v})
			break
		}
	}
	d.pairs = pairs

	// Walk the defects in order, covering each with its unit — the
	// matched pair, or the singleton memo — and checking that all unit
	// closures are pairwise disjoint. Any overlap means the units could
	// interact in the combined run, so the decomposition is abandoned
	// and the full decoder answers.
	var pred uint64
	for _, u := range defects {
		var m *unitMemo
		if pi := d.pairOf[u]; pi >= 0 {
			p := pairs[pi]
			if p.b == int32(u) {
				continue // second endpoint: unit already processed at a
			}
			m = d.pairMemo(p)
		} else {
			m = d.soloMemo(u)
		}
		for _, node := range m.infl {
			if d.inflGen[node] == gen {
				return d.uf.Decode(defects)
			}
		}
		for _, node := range m.infl {
			d.inflGen[node] = gen
		}
		pred ^= m.pred
	}
	d.hits++
	return pred
}
