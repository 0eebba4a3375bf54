// Hierarchical decoder study (paper §7.5): a lookup-table decoder backed
// by an accurate matcher. Synchronization policy changes the syndrome
// distribution, which changes the LUT hit rate, which changes decoding
// latency — Active synchronization makes decoding faster, not just more
// accurate.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"latticesim"
	"latticesim/internal/decoder"
	"latticesim/internal/stats"
)

func main() {
	const (
		d        = 5
		tauNs    = 1000.0
		shots    = 20000
		lutBytes = 3 << 20 // 3MB table for d=5 (paper §7.5)
	)
	hw := latticesim.IBM()
	for _, policy := range []latticesim.Policy{latticesim.Passive, latticesim.Active} {
		spec, _, ok := latticesim.SpecForPolicy(d, latticesim.BasisX, hw, 1e-3, policy, tauNs, 0, 0, 0)
		if !ok {
			log.Fatalf("%v infeasible", policy)
		}
		res, err := spec.Build()
		if err != nil {
			log.Fatal(err)
		}
		pl, err := latticesim.NewPipeline(res.Circuit)
		if err != nil {
			log.Fatal(err)
		}
		lut := decoder.BuildLUT(latticesim.ExtractDEM(res.Circuit), lutBytes, 8)
		h := &decoder.Hierarchical{
			LUT:     lut,
			Slow:    decoder.NewUnionFind(pl.Graph),
			Latency: decoder.DefaultLatencyModel(d),
		}
		td := &timed{h: h, rng: stats.NewRand(11)}
		r := pl.RunWithDecoder(td, shots, 3)
		fmt.Printf("%-8s LUT entries=%d (%.1fMB)  hit rate=%.3f  mean latency=%.0fns  LER=%.5f\n",
			policy, lut.Entries(), float64(lut.SizeBytes())/(1<<20),
			h.HitRate(), td.total/float64(td.count), r.Rate(latticesim.ObsJoint))
	}
	fmt.Println("\nfewer syndrome defects under Active -> more LUT hits -> lower mean latency")
}

// timed wraps the hierarchical decoder with latency accounting.
type timed struct {
	h     *decoder.Hierarchical
	rng   *rand.Rand
	total float64
	count int
}

// Decode implements decoder.Decoder.
func (t *timed) Decode(defects []int) uint64 {
	obs, lat := t.h.DecodeTimed(defects, t.rng)
	t.total += lat
	t.count++
	return obs
}
