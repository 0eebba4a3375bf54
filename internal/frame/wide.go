package frame

import "math/rand/v2"

// WideWords is the most batches one WideSampler.SampleGroup call takes.
const WideWords = 4

// WideSampler samples groups of batches through one compiled Sampler per
// lane. It runs the same kernel as Plan.NewSampler.
//
// Deprecated: the e2ebench mem-d7 replay is the only caller; use
// Plan.NewSampler and call SampleBatch once per batch.
type WideSampler struct {
	lanes   [WideWords]*Sampler
	batches [WideWords]Batch
}

// NewWideSampler mints a WideSampler over the compiled plan.
//
// Deprecated: the e2ebench mem-d7 replay is the only caller; use
// Plan.NewSampler.
func (p *Plan) NewWideSampler() *WideSampler {
	s := &WideSampler{}
	for l := range s.lanes {
		s.lanes[l] = p.NewSampler()
	}
	return s
}

// SampleGroup samples batch l with lane l's SampleBatch, in order, so rng
// is consumed exactly as by len(shots) sequential SampleBatch calls. The
// batches alias lane scratch until the next SampleGroup call.
func (s *WideSampler) SampleGroup(rng *rand.Rand, shots []int) []Batch {
	for l, n := range shots {
		s.batches[l] = s.lanes[l].SampleBatch(rng, n)
	}
	return s.batches[:len(shots)]
}
