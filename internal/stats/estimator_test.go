package stats

import (
	"math"
	"testing"
)

// TestWilsonIntervalEdgeCases covers the boundary shapes a sweep can
// produce: no failures, all failures, a single trial, and counts so
// large the quadratic terms vanish.
func TestWilsonIntervalEdgeCases(t *testing.T) {
	const z = 1.96
	cases := []struct {
		name string
		b    Binomial
	}{
		{"zero errors", Binomial{Successes: 0, Trials: 40000}},
		{"all errors", Binomial{Successes: 40000, Trials: 40000}},
		{"single trial hit", Binomial{Successes: 1, Trials: 1}},
		{"single trial miss", Binomial{Successes: 0, Trials: 1}},
		{"one error", Binomial{Successes: 1, Trials: 40000}},
		{"huge n", Binomial{Successes: 1 << 40, Trials: 1 << 41}},
	}
	for _, tc := range cases {
		lo, hi := tc.b.WilsonInterval(z)
		if lo < 0 || hi > 1 || lo > hi {
			t.Fatalf("%s: malformed interval [%v, %v]", tc.name, lo, hi)
		}
		// Containment up to one ulp of slack: the hi bound of the
		// all-success case rounds to 1-2⁻⁵³.
		if p := tc.b.Rate(); p < lo-1e-12 || p > hi+1e-12 {
			t.Fatalf("%s: interval [%v, %v] excludes the point estimate %v", tc.name, lo, hi, p)
		}
		if tc.b.Successes == 0 && lo != 0 {
			t.Fatalf("%s: zero successes must pin the lower bound to 0, got %v", tc.name, lo)
		}
		if tc.b.Successes == tc.b.Trials && hi < 1-1e-12 {
			t.Fatalf("%s: all successes must push the upper bound to ~1, got %v", tc.name, hi)
		}
	}
}

// TestWilsonWidthMonotoneInN: at a fixed observed rate, more trials can
// only narrow the interval.
func TestWilsonWidthMonotoneInN(t *testing.T) {
	const z = 1.96
	for _, rate := range []float64{0.0005, 0.01, 0.5} {
		prev := math.Inf(1)
		for n := 2000; n <= 2048000; n *= 2 {
			k := int(math.Round(rate * float64(n)))
			lo, hi := Binomial{Successes: k, Trials: n}.WilsonInterval(z)
			if w := hi - lo; w >= prev {
				t.Fatalf("rate %v: width %v at n=%d did not shrink below %v", rate, w, n, prev)
			} else {
				prev = w
			}
		}
	}
}

// TestWilsonGolden pins the exact float64 interval values that
// sweep.Record emits (wilson_low/wilson_high columns): any change here
// is a schema-visible change and must be called out as one.
func TestWilsonGolden(t *testing.T) {
	cases := []struct {
		b      Binomial
		lo, hi float64
	}{
		{Binomial{Successes: 0, Trials: 40000}, 0, 9.60307772041573e-05},
		{Binomial{Successes: 1, Trials: 40000}, 4.413013988001661e-06, 0.00014161296167729544},
		{Binomial{Successes: 38, Trials: 40000}, 0.0006922457407302902, 0.0013036025779971793},
		{Binomial{Successes: 383, Trials: 40000}, 0.008666633412553958, 0.010577558375266737},
		{Binomial{Successes: 20000, Trials: 40000}, 0.49510023528105285, 0.5048997647189472},
		{Binomial{Successes: 40000, Trials: 40000}, 0.9999039692227957, 0.9999999999999999},
	}
	for _, tc := range cases {
		lo, hi := tc.b.WilsonInterval(1.96)
		if lo != tc.lo || hi != tc.hi {
			t.Fatalf("%d/%d: interval [%v, %v] drifted from pinned [%v, %v]",
				tc.b.Successes, tc.b.Trials, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestCIRelWidth(t *testing.T) {
	if rw := (CI{Estimate: 0.01, Low: 0.008, High: 0.013}).RelWidth(); math.Abs(rw-0.5) > 1e-12 {
		t.Fatalf("RelWidth = %v, want 0.5", rw)
	}
	if rw := (CI{Estimate: 0, Low: 0, High: 0.1}).RelWidth(); !math.IsInf(rw, 1) {
		t.Fatalf("zero estimate must be unconverged (+Inf), got %v", rw)
	}
}

// TestBinomialIsEstimator: the CI view must agree exactly with the
// underlying WilsonInterval — same floats, not a reimplementation.
func TestBinomialIsEstimator(t *testing.T) {
	ci := Binomial{Successes: 38, Trials: 40000}.CI(1.96)
	lo, hi := Binomial{Successes: 38, Trials: 40000}.WilsonInterval(1.96)
	if ci.Low != lo || ci.High != hi || ci.Estimate != 38.0/40000 {
		t.Fatalf("CI view %+v disagrees with WilsonInterval [%v, %v]", ci, lo, hi)
	}
}

// TestFixedShotsForTarget: the returned budget must meet the target and
// be minimal (n-1 must miss it), mirroring the allocator's stopping rule.
func TestFixedShotsForTarget(t *testing.T) {
	const z = 1.96
	for _, tc := range []struct{ rate, target float64 }{
		{0.2, 0.2}, {0.02, 0.2}, {0.0075, 0.2}, {0.0075, 0.1}, {0.5, 0.05},
	} {
		n := FixedShotsForTarget(tc.rate, tc.target, z)
		if n <= 0 {
			t.Fatalf("rate %v target %v: no budget found", tc.rate, tc.target)
		}
		meets := func(n int) bool {
			k := int(math.Round(tc.rate * float64(n)))
			return Binomial{Successes: k, Trials: n}.CI(z).RelWidth() <= tc.target
		}
		if !meets(n) {
			t.Fatalf("rate %v target %v: budget %d does not meet the target", tc.rate, tc.target, n)
		}
		if n > 1 && meets(n-1) {
			t.Fatalf("rate %v target %v: budget %d is not minimal", tc.rate, tc.target, n)
		}
	}
	if FixedShotsForTarget(0, 0.2, z) != 0 || FixedShotsForTarget(0.1, 0, z) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
	// Harder points need more shots.
	if FixedShotsForTarget(0.001, 0.2, z) <= FixedShotsForTarget(0.01, 0.2, z) {
		t.Fatal("rarer events must need more shots at the same target")
	}
}
