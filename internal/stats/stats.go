// Package stats provides the small statistical toolkit used across the
// simulator: reproducible RNG construction, binomial confidence intervals,
// summary statistics, and histograms.
//
// Every stochastic component in this repository takes an explicit
// *rand.Rand so experiments are reproducible from a single seed.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// NewRand returns a deterministic PCG-backed generator for the given seed.
// The two stream words are derived from the seed so that distinct seeds
// yield independent streams.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Binomial summarizes k successes out of n trials.
type Binomial struct {
	Successes int
	Trials    int
}

// Rate returns the empirical success rate, or 0 for empty samples.
func (b Binomial) Rate() float64 {
	if b.Trials == 0 {
		return 0
	}
	return float64(b.Successes) / float64(b.Trials)
}

// WilsonInterval returns the Wilson score interval for the success
// probability at the given z value (z=1.96 for ~95% confidence).
func (b Binomial) WilsonInterval(z float64) (lo, hi float64) {
	if b.Trials == 0 {
		return 0, 1
	}
	n := float64(b.Trials)
	p := b.Rate()
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String renders the estimate with its 95% interval.
func (b Binomial) String() string {
	lo, hi := b.WilsonInterval(1.96)
	return fmt.Sprintf("%.3g [%.3g, %.3g] (%d/%d)", b.Rate(), lo, hi, b.Successes, b.Trials)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs (0 for empty input). The input is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Percentile returns the q-th percentile (q in [0,100]) using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if q <= 0 {
		return tmp[0]
	}
	if q >= 100 {
		return tmp[len(tmp)-1]
	}
	pos := q / 100 * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo]
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// SampleLogNormal draws from a lognormal distribution with the given
// location and scale of the underlying normal.
func SampleLogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// SampleGeometric returns the number of Bernoulli(p) failures before the
// first success (>= 0). For p <= 0 it returns a very large value; for
// p >= 1 it returns 0.
func SampleGeometric(rng *rand.Rand, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt32
	}
	// Inversion: floor(ln(U)/ln(1-p)).
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return int(math.Log(u) / math.Log1p(-p))
}
