package frame

// Transpose-based sparse syndrome extraction.
//
// Batch.ForEachShot is dense: for every shot it scans every detector
// word, costing O(64 × detectors) per batch no matter how few detectors
// fired. At the low physical error rates where the interesting QEC
// regimes live, almost all of those reads find nothing. The Extractor
// transposes instead: it walks each detector word once and scatters its
// set bits into per-shot defect lists, costing O(detectors + fires) per
// batch — a ~64× reduction of the scan term.
//
// The visit order and payloads are bit-identical to the dense form: shots
// ascending, defect lists ascending (detector words are walked in
// increasing detector order, so scattered entries arrive sorted), and the
// same observable masks. TestExtractorMatchesDense enforces this over
// randomized circuits.

import "math/bits"

// Extractor is reusable scratch for sparse batch extraction. The zero
// value is ready to use; after a warm-up batch it performs no allocations.
// Not safe for concurrent use — give each worker its own.
type Extractor struct {
	defects [64][]int
	masks   [64]uint64
}

// NewExtractor returns an empty extractor.
func NewExtractor() *Extractor { return &Extractor{} }

// ForEachShot visits shots 0..b.Shots-1 with the identical
// (defects, obsMask) stream as Batch.ForEachShot, in O(detectors + fires)
// instead of O(shots × detectors). The defects slices are extractor
// scratch, reused by the next call; copy to retain.
func (e *Extractor) ForEachShot(b Batch, fn func(shot int, defects []int, obsMask uint64)) {
	for i := 0; i < b.Shots; i++ {
		e.defects[i] = e.defects[i][:0]
		e.masks[i] = 0
	}
	m := b.Mask()
	for d, w := range b.Det {
		w &= m
		for w != 0 {
			shot := bits.TrailingZeros64(w)
			e.defects[shot] = append(e.defects[shot], d)
			w &= w - 1
		}
	}
	for o, w := range b.Obs {
		w &= m
		for w != 0 {
			shot := bits.TrailingZeros64(w)
			e.masks[shot] |= 1 << uint(o)
			w &= w - 1
		}
	}
	for i := 0; i < b.Shots; i++ {
		fn(i, e.defects[i], e.masks[i])
	}
}

// SparseBatch is the grouped sparse form of one Batch: shot i's fired
// detectors are Defects[Off[i]:Off[i+1]] (ascending), its observable
// flips ObsMask[i]. The golden extraction digests hash this flat form.
type SparseBatch struct {
	Defects []int
	Off     []int32
	ObsMask []uint64
}

// Shot returns shot i's fired detectors (aliasing the flat buffer).
func (sp *SparseBatch) Shot(i int) []int {
	return sp.Defects[sp.Off[i]:sp.Off[i+1]]
}

// Extract fills dst with the batch's grouped sparse syndromes: the
// identical (defects, obsMask) stream ForEachShot visits, concatenated
// in shot order. dst's slices are truncated and reused, so steady-state
// extraction does not allocate.
func (e *Extractor) Extract(b Batch, dst *SparseBatch) {
	dst.Defects = dst.Defects[:0]
	dst.Off = append(dst.Off[:0], 0)
	dst.ObsMask = dst.ObsMask[:0]
	e.ForEachShot(b, func(_ int, defects []int, obsMask uint64) {
		dst.Defects = append(dst.Defects, defects...)
		dst.Off = append(dst.Off, int32(len(dst.Defects)))
		dst.ObsMask = append(dst.ObsMask, obsMask)
	})
}
