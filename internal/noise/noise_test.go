package noise

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdlePauliFormulas(t *testing.T) {
	const tau, t1, t2 = 1000.0, 200000.0, 150000.0
	px, py, pz := IdlePauli(tau, t1, t2)
	wantX := (1 - math.Exp(-tau/t1)) / 4
	wantZ := (1-math.Exp(-tau/t2))/2 - wantX
	if math.Abs(px-wantX) > 1e-15 || px != py {
		t.Fatalf("px=%v py=%v want %v", px, py, wantX)
	}
	if math.Abs(pz-wantZ) > 1e-15 {
		t.Fatalf("pz=%v want %v", pz, wantZ)
	}
}

func TestIdlePauliZeroTau(t *testing.T) {
	px, py, pz := IdlePauli(0, 1000, 1000)
	if px != 0 || py != 0 || pz != 0 {
		t.Fatal("zero idle must have zero error")
	}
}

func TestIdlePauliClampsZ(t *testing.T) {
	// T2 >> T1 (T1-limited): the raw pz formula would go negative.
	_, _, pz := IdlePauli(1000, 1000, 1e12)
	if pz != 0 {
		t.Fatalf("pz=%v, want clamp at 0", pz)
	}
}

// TestIdlePauliProperties: probabilities valid and monotone in tau.
func TestIdlePauliProperties(t *testing.T) {
	f := func(tauRaw, t1Raw, t2Raw uint16) bool {
		tau := float64(tauRaw%5000) + 1
		t1 := float64(t1Raw)*2 + 1000
		t2 := float64(t2Raw)*2 + 1000
		px, py, pz := IdlePauli(tau, t1, t2)
		if px < 0 || py < 0 || pz < 0 || px+py+pz > 1 {
			return false
		}
		px2, _, _ := IdlePauli(tau*2, t1, t2)
		return px2 >= px
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestModelIdleChannel(t *testing.T) {
	m := Model{P: 1e-3, T1Ns: 25000, T2Ns: 40000}
	px, _, _ := m.IdleChannel(1000)
	wx, _, _ := IdlePauli(1000, 25000, 40000)
	if px != wx {
		t.Fatal("model channel must match the raw formula")
	}
	if idleTotal(1000, 25000, 40000) <= 0 {
		t.Fatal("total must be positive")
	}
}

// idleTotal is the total idle error probability px+py+pz.
func idleTotal(tauNs, t1Ns, t2Ns float64) float64 {
	px, py, pz := IdlePauli(tauNs, t1Ns, t2Ns)
	return px + py + pz
}

// TestGoogleWorseThanIBM: the shorter-coherence platform accumulates more
// idle error for the same idle duration.
func TestGoogleWorseThanIBM(t *testing.T) {
	ibm := idleTotal(1000, 200000, 150000)
	ggl := idleTotal(1000, 25000, 40000)
	if ggl <= ibm {
		t.Fatalf("google idle error %v should exceed IBM %v", ggl, ibm)
	}
}
