package decoder

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"latticesim/internal/circuit"
	"latticesim/internal/dem"
	"latticesim/internal/frame"
	"latticesim/internal/hardware"
	"latticesim/internal/stats"
	"latticesim/internal/surface"
)

// ufPoolShots is the number of sampled shots per golden circuit, empty
// syndromes included. 18 circuits × 6144 shots puts 110,592 syndromes
// through TestUnionFindMatchesReference.
const ufPoolShots = 6144

// ufCircuit is one syndrome source of the union-find golden: a Z-basis
// memory or an X-basis merge on IBM hardware.
type ufCircuit struct {
	merge bool
	d     int
	p     float64
}

func (c ufCircuit) String() string {
	kind := "memZ"
	if c.merge {
		kind = "mergeX"
	}
	return fmt.Sprintf("%s-d%d-p%g", kind, c.d, c.p)
}

// ufCircuits lists the 18 golden circuits: d ∈ {3,5,7} × {Z memory,
// X merge} × p ∈ {1e-4, 1e-3, 3e-3}.
func ufCircuits() []ufCircuit {
	var cs []ufCircuit
	for _, d := range []int{3, 5, 7} {
		for _, merge := range []bool{false, true} {
			for _, p := range []float64{1e-4, 1e-3, 3e-3} {
				cs = append(cs, ufCircuit{merge: merge, d: d, p: p})
			}
		}
	}
	return cs
}

// ufPool is one circuit's decoder graph and its fixed syndrome pool.
type ufPool struct {
	g    *Graph
	pool [][]int
}

var (
	ufPoolsMu sync.Mutex
	ufPools   = map[ufCircuit]*ufPool{}
)

// ufPoolFor samples the circuit's ufPoolShots syndromes with the
// compiled sampler at seed 2101, once per test binary: the golden and
// the differential test decode the same pools.
func ufPoolFor(t *testing.T, c ufCircuit) *ufPool {
	t.Helper()
	ufPoolsMu.Lock()
	defer ufPoolsMu.Unlock()
	if p, ok := ufPools[c]; ok {
		return p
	}
	var circ *circuit.Circuit
	if c.merge {
		res, err := surface.MergeSpec{D: c.d, Basis: surface.BasisX, HW: hardware.IBM(), P: c.p}.Build()
		if err != nil {
			t.Fatal(err)
		}
		circ = res.Circuit
	} else {
		res, err := surface.MemorySpec{D: c.d, Basis: surface.BasisZ, HW: hardware.IBM(), P: c.p}.Build()
		if err != nil {
			t.Fatal(err)
		}
		circ = res.Circuit
	}
	p := &ufPool{g: BuildGraph(dem.FromCircuit(circ))}
	s := frame.Compile(circ).NewSampler()
	ext := frame.NewExtractor()
	rng := stats.NewRand(2101)
	for len(p.pool) < ufPoolShots {
		ext.ForEachShot(s.SampleBatch(rng, 64), func(_ int, defects []int, _ uint64) {
			p.pool = append(p.pool, append([]int(nil), defects...))
		})
	}
	ufPools[c] = p
	return p
}

// ufGolden holds, per circuit, the SHA-256 of its syndrome pool and of
// UnionFind.Decode's predictions over that pool, recorded at the
// implementation TestUnionFindMatchesReference keeps as refUnionFind.
// A change that means to move decoder bits updates the decode digests
// and says which circuits moved, and why, in CHANGES.md. A pool digest
// that moves means the sampler, the circuit or the DEM changed, not the
// decoder.
var ufGolden = map[string][2]string{
	"memZ-d3-p0.0001":   {"bd1dd254e0987f7f4b284ab6fa8b4efe8421f3f407c0e6bad98f21ef987103c8", "2fc893f36b199e5bdcb17016f30988c3f04aed1d3732a3a46c3f1d0b54df1b69"},
	"memZ-d3-p0.001":    {"71655240b0efad8da7e269fb2f699c75650063db60c3cb64ab51ac7856442a43", "a742ffcbd17028e0c693b669c1b7a6a54d6661ea92653ad42dd068dec8a8eddd"},
	"memZ-d3-p0.003":    {"f5f01de71eacc5dcf9160e4196da1dc6e0a873d5b36e520e897fc1a279dcc6b1", "d2db55899d0cf0aa715a8e1d39395ba52033f4996461992f5e87209c590dd491"},
	"mergeX-d3-p0.0001": {"de2ffeb75e8d10bbf2a0d3d19b71957fa8f94c28bda0860c05f8c1caff52ac9d", "d72b5bc2d4935de8ca2b54645d9970544932aa38fb08e2acd0e9af9621f338d2"},
	"mergeX-d3-p0.001":  {"ad24e7176639bb29ecd3091493f9283839eb131f68dda843abaefdfc2408aeff", "b8c6ac4c53545f692a393777615cbe9215be5d0630667da43ae6e16627267b00"},
	"mergeX-d3-p0.003":  {"3bb04f1b55d1b56e767c457484d81c2adbd02edd48af69d2dde1eee0f0c56847", "5cb84fd5dc421e27f8cabd2889d462a74efe72daf52cab9b5fd314b1f951735a"},
	"memZ-d5-p0.0001":   {"0309d05df83f2e4bfd4e0af9f5ea3e547a7a08079dd2c2c03830398d63e1a87d", "2f3899e4f31e006513be55dfa5ce2d445e728747f97700c83b32df1ed70473cd"},
	"memZ-d5-p0.001":    {"b4b55780ee550182c83df1a9b237b78e6aa086c42d6372036790d56e26c6bd08", "60ba1708a103373a356215d155ef0bf7364b92986667eebaeef4efe3570091a6"},
	"memZ-d5-p0.003":    {"75964c1fe9e035ec1e35a9cabaf7a33f61c657f1cfeb7b52799a8765ac0be16a", "988d6b1ebfbb49c39e2729d6cd23ef57688c8fab36cb3469d9b692e7facdbf84"},
	"mergeX-d5-p0.0001": {"81e5f533d0db682c945fe07b29a9d5d08f780ca8b4bd01ea0a9336967bb2f77e", "4f2170e678c0ee6cab69ac9ecb745ca0bdc673982d162b8f1028595e2e9f798a"},
	"mergeX-d5-p0.001":  {"bcc87fce32933e3dda1a4b4168353e7a1ebab874df0cf1956fc1739615d38f2a", "382ca6a97fffe870c6252832f6d79b94539806f637adcd5e9bc4183f9371d24b"},
	"mergeX-d5-p0.003":  {"5d17097478b886e73b6ee86f63297d6b2dc56c131a9b1ac6eb2a704a8f85f5da", "e1934022b3621b890f84340cce9ea95957daeabba1e419285723e69b8fe17574"},
	"memZ-d7-p0.0001":   {"6125d63898a3e01a04b8366b3ee445610893b766e702deaadd3054243b287fc4", "1cc3e3d4eb73e6bf6aeaa3334b6655362c05715f43e8d909d2bdd30b47bd24ef"},
	"memZ-d7-p0.001":    {"edea05ded0b3e35897fd5170eddba89fc38739552ab788a286c32dfef05c95e4", "3cd3bd92bdaf479d53014bca950ff165c2a6cfdae7c08576e1a423ef3109d043"},
	"memZ-d7-p0.003":    {"8ad8ed72075adf460e5b79f83a24e720f18abfad5834f20827f0691e27fe8894", "2cc22922075211d35ed15d7ee3200a20f58e82c7fe022ea9d8926c1937fcdf78"},
	"mergeX-d7-p0.0001": {"e0f6922010d9e26b89b2220c8cb2ed0a9bc2defbb9bca25bdef8aed1e6c43987", "8eba8fb594f4a5db81aae5351417b58ec76a5e8a29739699ac1595d750478c8c"},
	"mergeX-d7-p0.001":  {"1459de37c21eb7dd1e145ae62723c5b1c1212e11b903c894c73a5febdf7ea0e6", "2c1abb2af3dc96513faa223eeda09481864fbe91eb97528cf306580e5973f1f7"},
	"mergeX-d7-p0.003":  {"3a3c34a849a481f45ab06d9bac3e2db11251da226d1253b63204113d80b99083", "965da837211818fb13f2ebd2d4d8b056a5f6bf920e429a02da768851fa64f00a"},
}

// digestPool hashes each syndrome as its length and defect indices.
func digestPool(pool [][]int) string {
	h := sha256.New()
	var buf [4]byte
	for _, defects := range pool {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(defects)))
		h.Write(buf[:])
		for _, v := range defects {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestDecodes hashes the decoder's prediction for each syndrome.
func digestDecodes(dec Decoder, pool [][]int) string {
	h := sha256.New()
	var buf [8]byte
	for _, defects := range pool {
		binary.LittleEndian.PutUint64(buf[:], dec.Decode(defects))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestUnionFindGolden pins UnionFind.Decode's bits on 18 circuits'
// syndrome pools. The diff harness compares Monte Carlo paths that
// share one union-find, so it cannot see a change that moves every
// decode; this test can.
func TestUnionFindGolden(t *testing.T) {
	for _, c := range ufCircuits() {
		p := ufPoolFor(t, c)
		pool := digestPool(p.pool)
		decode := digestDecodes(NewUnionFind(p.g), p.pool)
		want, ok := ufGolden[c.String()]
		switch {
		case !ok:
			t.Errorf("%s: no golden entry; got %q: {%q, %q},", c, c.String(), pool, decode)
		case pool != want[0]:
			t.Errorf("%s: syndrome pool digest %s, want %s: the sampler, circuit or DEM changed, not the decoder", c, pool, want[0])
		case decode != want[1]:
			t.Errorf("%s: decode digest %s, want %s", c, decode, want[1])
		}
	}
}

// TestUnionFindMatchesReference decodes every golden pool syndrome, then
// random defect sets at densities from sparse to dense, with the
// production union-find and with refUnionFind, and reports the first
// syndrome on which they diverge. One instance of each decodes a whole
// pool, so state leaking from one decode into the next shows too.
// Under the race detector, which slows this single-goroutine check
// about tenfold and adds nothing to it, every 8th syndrome is decoded;
// the full set runs without -race.
func TestUnionFindMatchesReference(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 8
	}
	syndromes := 0
	check := func(name string, g *Graph, pool [][]int) {
		t.Helper()
		uf, ref := NewUnionFind(g), newRefUnionFind(g)
		for i := 0; i < len(pool); i += stride {
			defects := pool[i]
			syndromes++
			if got, want := uf.Decode(defects), ref.Decode(defects); got != want {
				t.Fatalf("%s syndrome %d (%d defects %v): union-find %#x, reference %#x",
					name, i, len(defects), defects, got, want)
			}
		}
	}
	for _, c := range ufCircuits() {
		p := ufPoolFor(t, c)
		check(c.String(), p.g, p.pool)
	}
	for _, c := range ufCircuits() {
		if c.d == 7 || c.p != 1e-3 {
			continue
		}
		g := ufPoolFor(t, c).g
		rng := rand.New(rand.NewPCG(uint64(c.d), 0x5EED))
		densities := []float64{0.002, 0.01, 0.05, 0.15, 0.4}
		pool := make([][]int, 2000)
		for i := range pool {
			q := densities[i%len(densities)]
			for v := 0; v < g.NumDetectors; v++ {
				if rng.Float64() < q {
					pool[i] = append(pool[i], v)
				}
			}
		}
		check(c.String()+"/random", g, pool)
	}
	t.Logf("%d syndromes agree", syndromes)
}

// TestUnionFindSweepStampWrap starts decoders' sweep counters where
// they would wrap — at math.MaxInt32, and at −1, one step before the
// zero that unwritten stamps hold — and requires a fresh decoder's
// predictions. Each syndrome is decoded both by a new decoder, whose
// stamps were never written, and by one decoder that carries stale
// stamps from earlier decodes.
func TestUnionFindSweepStampWrap(t *testing.T) {
	p := ufPoolFor(t, ufCircuit{merge: true, d: 5, p: 3e-3})
	pool, warm := p.pool[:512], p.pool[512:1024]
	fresh := NewUnionFind(p.g)
	want := make([]uint64, len(pool))
	for i, defects := range pool {
		want[i] = fresh.Decode(defects)
	}
	for _, start := range []int32{-1, math.MaxInt32} {
		used := NewUnionFind(p.g)
		for _, defects := range warm {
			used.Decode(defects)
		}
		used.sweep = start
		for i, defects := range pool {
			uf := NewUnionFind(p.g)
			uf.sweep = start
			if got := uf.Decode(defects); got != want[i] {
				t.Fatalf("new decoder, sweep counter started at %d: syndrome %d (%d defects): %#x, fresh decoder %#x",
					start, i, len(defects), got, want[i])
			}
			if got := used.Decode(defects); got != want[i] {
				t.Fatalf("used decoder, sweep counter started at %d: syndrome %d (%d defects): %#x, fresh decoder %#x",
					start, i, len(defects), got, want[i])
			}
		}
	}
}
