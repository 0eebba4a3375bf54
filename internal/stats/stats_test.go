package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinomial(t *testing.T) {
	b := Binomial{Successes: 50, Trials: 1000}
	if b.Rate() != 0.05 {
		t.Fatalf("rate = %v", b.Rate())
	}
	lo, hi := b.WilsonInterval(1.96)
	if !(lo < 0.05 && 0.05 < hi) {
		t.Fatalf("interval [%v,%v] does not contain the point estimate", lo, hi)
	}
	if lo < 0.03 || hi > 0.08 {
		t.Fatalf("interval [%v,%v] implausibly wide", lo, hi)
	}
	if (Binomial{}).Rate() != 0 {
		t.Fatal("empty binomial rate must be 0")
	}
	lo0, hi0 := Binomial{}.WilsonInterval(1.96)
	if lo0 != 0 || hi0 != 1 {
		t.Fatal("empty binomial interval must be [0,1]")
	}
}

func TestWilsonBounds(t *testing.T) {
	f := func(k, n uint16) bool {
		trials := int(n%1000) + 1
		succ := int(k) % (trials + 1)
		b := Binomial{Successes: succ, Trials: trials}
		lo, hi := b.WilsonInterval(1.96)
		return lo >= 0 && hi <= 1 && lo <= b.Rate()+1e-12 && hi >= b.Rate()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Fatal("mean")
	}
	if Median(xs) != 3 {
		t.Fatal("median odd")
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("median even")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("degenerate inputs")
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 || Percentile(xs, 50) != 3 {
		t.Fatal("percentile")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}

func TestSampleGeometric(t *testing.T) {
	rng := NewRand(3)
	const p = 0.25
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += SampleGeometric(rng, p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // mean failures before success
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("geometric mean %v, want ~%v", mean, want)
	}
	if SampleGeometric(rng, 1) != 0 {
		t.Fatal("p=1 must return 0")
	}
	if SampleGeometric(rng, 0) < math.MaxInt32 {
		t.Fatal("p=0 must return a huge value")
	}
}

func TestSampleLogNormal(t *testing.T) {
	rng := NewRand(4)
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, SampleLogNormal(rng, math.Log(1000), 0.5))
	}
	med := Median(xs)
	if med < 900 || med > 1100 {
		t.Fatalf("lognormal median %v, want ~1000", med)
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave the same stream")
	}
}
