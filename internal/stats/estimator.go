package stats

import "math"

// This file holds the interval surface behind adaptive shot allocation
// (DESIGN.md §12): the CI type the sweep engine's sequential stopping
// rule reads, its Wilson view of a Binomial count, and the analytic
// fixed-budget inversion that quantifies what adaptivity saves.

// CI is a confidence interval over a probability. Low and High are
// clamped to [0, 1].
type CI struct {
	// Estimate is the point estimate the interval brackets.
	Estimate float64
	// Low and High are the interval bounds at the z value passed to
	// Binomial.CI.
	Low, High float64
}

// Width returns High - Low.
func (c CI) Width() float64 { return c.High - c.Low }

// RelWidth returns the relative interval width (High-Low)/Estimate —
// the convergence metric of the adaptive allocator. A zero estimate
// returns +Inf: an unresolved rate is by definition not converged.
func (c CI) RelWidth() float64 {
	if c.Estimate <= 0 {
		return math.Inf(1)
	}
	return c.Width() / c.Estimate
}

// CI returns the Wilson score interval as a CI.
func (b Binomial) CI(z float64) CI {
	lo, hi := b.WilsonInterval(z)
	return CI{Estimate: b.Rate(), Low: lo, High: hi}
}

// FixedShotsForTarget returns the smallest plain Monte Carlo budget at
// which a point with the given true rate meets the target relative
// Wilson-interval width at the given z — the fixed per-point budget a
// non-adaptive campaign would need. It inverts the Wilson width
// numerically (binary search over n, using the expected error count
// r·n), so it is the analytic mirror of the allocator's stopping rule;
// EXPERIMENTS.md §12 uses it to quantify adaptive savings. Returns 0
// when rate or targetRCI is not positive.
func FixedShotsForTarget(rate, targetRCI, z float64) int {
	if rate <= 0 || targetRCI <= 0 {
		return 0
	}
	meets := func(n int) bool {
		k := int(math.Round(rate * float64(n)))
		if k <= 0 {
			return false
		}
		return Binomial{Successes: k, Trials: n}.CI(z).RelWidth() <= targetRCI
	}
	// Exponential bracket, then binary search the boundary.
	lo, hi := 1, 1
	for !meets(hi) {
		hi *= 2
		if hi >= math.MaxInt64/4 {
			return hi
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if meets(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi
}
