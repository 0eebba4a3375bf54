package qldpc

import (
	"math"
	"testing"

	"latticesim/internal/hardware"
)

func TestClocksFor(t *testing.T) {
	c := ClocksFor(hardware.IBM())
	if c.QLDPCCycleNs <= c.SurfaceCycleNs {
		t.Fatal("qLDPC cycle must be longer (7 vs 4 CNOT layers)")
	}
	want := c.SurfaceCycleNs + 3*hardware.IBM().Gate2Ns
	if math.Abs(c.QLDPCCycleNs-want) > 1e-9 {
		t.Fatalf("qLDPC cycle %v, want %v", c.QLDPCCycleNs, want)
	}
}

func TestSlackSawtooth(t *testing.T) {
	c := ClocksFor(hardware.IBM())
	if c.SlackAtRound(0) != 0 {
		t.Fatal("slack must start at 0")
	}
	drift := c.QLDPCCycleNs - c.SurfaceCycleNs
	if math.Abs(c.SlackAtRound(1)-drift) > 1e-9 {
		t.Fatalf("slack(1)=%v, want %v", c.SlackAtRound(1), drift)
	}
	// Monotone growth until the wrap, then a drop.
	wrap := c.RoundsPerWrap()
	if wrap < 2 {
		t.Fatalf("wrap=%d", wrap)
	}
	for r := 1; r < wrap-1; r++ {
		if c.SlackAtRound(r+1) <= c.SlackAtRound(r) {
			t.Fatalf("slack not increasing before the wrap at round %d", r)
		}
	}
	if c.SlackAtRound(wrap) >= c.SlackAtRound(wrap-1) {
		t.Fatal("slack must wrap around the surface cycle")
	}
}

func TestSlackBounded(t *testing.T) {
	for _, hw := range []hardware.Config{hardware.IBM(), hardware.Google()} {
		c := ClocksFor(hw)
		for r := 0; r <= 200; r++ {
			s := c.SlackAtRound(r)
			if s < 0 || s >= c.SurfaceCycleNs {
				t.Fatalf("%s: slack(%d)=%v outside [0,%v)", hw.Name, r, s, c.SurfaceCycleNs)
			}
		}
	}
}

// TestGoogleWrapsFasterThanIBM: Google's shorter cycle wraps in fewer
// rounds relative to its drift (Fig. 4(b) shows more sawteeth for the
// platform with the larger drift/cycle ratio).
func TestWrapPeriods(t *testing.T) {
	ibm := ClocksFor(hardware.IBM())
	ggl := ClocksFor(hardware.Google())
	if ibm.RoundsPerWrap() <= 1 || ggl.RoundsPerWrap() <= 1 {
		t.Fatal("wrap periods must exceed one round")
	}
}
