package tableau

import (
	"math/rand"
	"testing"
	"testing/quick"

	"latticesim/internal/circuit"
	"latticesim/internal/stats"
)

func TestComputationalBasics(t *testing.T) {
	s := New(2, stats.NewRand(1))
	// |00⟩: both deterministic 0.
	for q := int32(0); q < 2; q++ {
		out, det := s.MeasureZ(q)
		if out || !det {
			t.Fatalf("qubit %d: got (%v,%v), want (false,true)", q, out, det)
		}
	}
	// X flips deterministically.
	s.X(0)
	if out, det := s.MeasureZ(0); !out || !det {
		t.Fatalf("after X: got (%v,%v)", out, det)
	}
}

func TestHadamardRandomness(t *testing.T) {
	ones := 0
	const trials = 200
	rng := stats.NewRand(2)
	for i := 0; i < trials; i++ {
		s := New(1, rng)
		s.H(0)
		out, det := s.MeasureZ(0)
		if det {
			t.Fatal("H|0> must measure randomly")
		}
		if out {
			ones++
		}
		// Remeasurement must be deterministic and equal.
		out2, det2 := s.MeasureZ(0)
		if !det2 || out2 != out {
			t.Fatal("collapse broken")
		}
	}
	if ones < 60 || ones > 140 {
		t.Fatalf("ones=%d of %d, not ~50%%", ones, trials)
	}
}

func TestBellPairCorrelations(t *testing.T) {
	rng := stats.NewRand(3)
	for i := 0; i < 100; i++ {
		s := New(2, rng)
		s.H(0)
		s.CNOT(0, 1)
		a, detA := s.MeasureZ(0)
		b, detB := s.MeasureZ(1)
		if detA {
			t.Fatal("first Bell measurement must be random")
		}
		if !detB {
			t.Fatal("second Bell measurement must be determined by the first")
		}
		if a != b {
			t.Fatal("Bell pair outcomes disagree")
		}
	}
}

func TestGHZParity(t *testing.T) {
	rng := stats.NewRand(4)
	for i := 0; i < 50; i++ {
		s := New(3, rng)
		s.H(0)
		s.CNOT(0, 1)
		s.CNOT(1, 2)
		a, _ := s.MeasureZ(0)
		b, _ := s.MeasureZ(1)
		c, _ := s.MeasureZ(2)
		if a != b || b != c {
			t.Fatal("GHZ outcomes must all agree")
		}
	}
}

func TestSGate(t *testing.T) {
	// S² = Z: H S S H |0⟩ = HZH|0⟩ = X|0⟩ = |1⟩.
	s := New(1, stats.NewRand(5))
	s.H(0)
	s.S(0)
	s.S(0)
	s.H(0)
	out, det := s.MeasureZ(0)
	if !det || !out {
		t.Fatalf("HSSH|0> = (%v,%v), want (true,true)", out, det)
	}
}

func TestYViaXZ(t *testing.T) {
	// Z X |0⟩ = -|1⟩ → measures 1 deterministically.
	s := New(1, stats.NewRand(6))
	s.X(0)
	s.Z(0)
	out, det := s.MeasureZ(0)
	if !det || !out {
		t.Fatalf("ZX|0> = (%v,%v)", out, det)
	}
}

func TestReset(t *testing.T) {
	rng := stats.NewRand(7)
	s := New(2, rng)
	s.H(0)
	s.CNOT(0, 1)
	s.Reset(0)
	out, det := s.MeasureZ(0)
	if !det || out {
		t.Fatalf("after reset: (%v,%v), want (false,true)", out, det)
	}
}

// TestStabilizerInvariant (property): after random Clifford circuits, the
// tableau rows remain a valid symplectic basis — checked indirectly by
// measuring every qubit twice and requiring the second measurement to be
// deterministic and consistent.
func TestStabilizerInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(5, stats.NewRand(uint64(seed)+1))
		for i := 0; i < 40; i++ {
			q := int32(rng.Intn(5))
			q2 := int32(rng.Intn(5))
			switch rng.Intn(5) {
			case 0:
				s.H(q)
			case 1:
				s.S(q)
			case 2:
				if q != q2 {
					s.CNOT(q, q2)
				}
			case 3:
				s.X(q)
			case 4:
				s.MeasureZ(q)
			}
		}
		for q := int32(0); q < 5; q++ {
			first, _ := s.MeasureZ(q)
			second, det := s.MeasureZ(q)
			if !det || first != second {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCircuit(t *testing.T) {
	c := circuit.New()
	c.Reset(0, 1)
	c.H(0)
	c.CNOT(0, 1)
	m := c.Measure(0, 1)
	c.Detector([]float64{0}, m[0], m[1]) // Bell parity is deterministic 0
	c.Observable(0, m[0])
	res := Run(c, stats.NewRand(9), false)
	if len(res.Records) != 2 {
		t.Fatalf("records: %d", len(res.Records))
	}
	if res.Detectors[0] {
		t.Fatal("Bell parity detector fired")
	}
	if res.Deterministic[0] {
		t.Fatal("first Bell measurement misreported as deterministic")
	}
	if !res.Deterministic[1] {
		t.Fatal("second Bell measurement must be deterministic")
	}
}

func TestRunWithDeterministicNoise(t *testing.T) {
	c := circuit.New()
	c.Reset(0)
	c.XError(1.0, 0)
	m := c.Measure(0)
	c.Observable(0, m[0])
	res := Run(c, stats.NewRand(10), true)
	if !res.Observables[0] {
		t.Fatal("X_ERROR(1) must flip the outcome")
	}
	res2 := Run(c, stats.NewRand(10), false)
	if res2.Observables[0] {
		t.Fatal("noiseless run must not flip")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(1, stats.NewRand(11))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range qubit")
		}
	}()
	s.H(5)
}
