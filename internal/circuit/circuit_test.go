package circuit

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample() *Circuit {
	c := New()
	c.QubitCoords(0, 1, 1)
	c.QubitCoords(1, 3, 1)
	c.QubitCoords(2, 2, 0)
	c.Reset(0, 1, 2)
	c.XError(0.001, 0, 1)
	c.H(2)
	c.CNOT(2, 0, 2, 1)
	c.Depolarize2(0.001, 2, 0)
	c.H(2)
	c.Tick()
	c.PauliChannel1(0.001, 0.001, 0.002, 0, 1)
	r := c.MeasureReset(2)
	c.Detector([]float64{2, 0, 0, CheckX}, r[0])
	f := c.Measure(0, 1)
	c.Detector([]float64{2, 0, 1, CheckX}, f[0], f[1], r[0])
	c.Observable(0, f[0])
	return c
}

func TestBuilderCounts(t *testing.T) {
	c := buildSample()
	if got := c.NumQubits(); got != 3 {
		t.Errorf("NumQubits = %d, want 3", got)
	}
	if got := c.NumMeasurements(); got != 3 {
		t.Errorf("NumMeasurements = %d, want 3", got)
	}
	if got := c.NumDetectors(); got != 2 {
		t.Errorf("NumDetectors = %d, want 2", got)
	}
	if got := c.NumObservables(); got != 1 {
		t.Errorf("NumObservables = %d, want 1", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	c := buildSample()
	txt := c.Text()
	parsed, err := ParseTextString(txt)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, txt)
	}
	if parsed.Text() != txt {
		t.Fatalf("round trip mismatch:\n--- original\n%s\n--- reparsed\n%s", txt, parsed.Text())
	}
	if parsed.NumDetectors() != c.NumDetectors() || parsed.NumMeasurements() != c.NumMeasurements() {
		t.Fatal("counts changed across round trip")
	}
}

func TestTextStimConventions(t *testing.T) {
	c := buildSample()
	txt := c.Text()
	for _, want := range []string{
		"QUBIT_COORDS(1, 1) 0",
		"R 0 1 2",
		"X_ERROR(0.001) 0 1",
		"CX 2 0 2 1",
		"DEPOLARIZE2(0.001) 2 0",
		"PAULI_CHANNEL_1(0.001, 0.001, 0.002) 0 1",
		"MR 2",
		"DETECTOR(2, 0, 0, 1) rec[-1]",
		"OBSERVABLE_INCLUDE(0) rec[-2]",
		"TICK",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("emitted text missing %q:\n%s", want, txt)
		}
	}
}

func TestParseAliases(t *testing.T) {
	c, err := ParseTextString("RZ 0\nCNOT 0 1\nMZ 0 1\nDETECTOR(0) rec[-1] rec[-2]\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumMeasurements() != 2 || c.CountOps(OpCNOT) != 1 {
		t.Fatalf("alias parse failed: %+v", c)
	}
}

func TestParseComments(t *testing.T) {
	c, err := ParseTextString("# full line comment\nH 0 # trailing\n\nM 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.CountOps(OpH) != 1 || c.NumMeasurements() != 1 {
		t.Fatal("comment handling broken")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"FROB 0",                 // unknown instruction
		"DETECTOR(0) rec[0]",     // non-negative record
		"DETECTOR(0) rec[-1]",    // no measurement yet
		"H (",                    // unbalanced
		"X_ERROR(2.0) 0",         // probability out of range
		"M 0\nDETECTOR rec[-2]",  // record out of range
		"QUBIT_COORDS(1, 2) 0 1", // too many targets
	}
	for _, src := range cases {
		if _, err := ParseTextString(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestValidateCatchesBadOps(t *testing.T) {
	c := New()
	c.Ops = append(c.Ops, Op{Type: OpCNOT, Targets: []int32{0}})
	if err := c.Validate(); err == nil {
		t.Error("odd CNOT targets not caught")
	}
	c2 := New()
	c2.Ops = append(c2.Ops, Op{Type: OpDetector, Records: []int32{0}})
	if err := c2.Validate(); err == nil {
		t.Error("out-of-range record not caught")
	}
	c3 := New()
	c3.Ops = append(c3.Ops, Op{Type: OpXError, Targets: []int32{0}, Args: []float64{0.6, 0.6}})
	if err := c3.Validate(); err == nil {
		t.Error("wrong arg count not caught")
	}
}

func TestZeroProbabilityChannelsDropped(t *testing.T) {
	c := New()
	c.XError(0, 0)
	c.Depolarize1(0, 1)
	c.PauliChannel1(0, 0, 0, 2)
	if len(c.Ops) != 0 {
		t.Fatalf("zero-probability channels kept: %d ops", len(c.Ops))
	}
}

func TestDetectorInfo(t *testing.T) {
	c := buildSample()
	dets := c.Detectors()
	if len(dets) != 2 {
		t.Fatalf("got %d detectors", len(dets))
	}
	if !dets[0].IsXCheck() || dets[0].Round() != 0 {
		t.Errorf("detector 0 metadata wrong: %+v", dets[0])
	}
	if dets[1].Round() != 1 {
		t.Errorf("detector 1 round = %d", dets[1].Round())
	}
	if dets[0].Index != 0 || dets[1].Index != 1 {
		t.Error("detector indices wrong")
	}
}

// TestRoundTripProperty: random builder programs survive a text round
// trip with identical ops.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		meas := 0
		for i := 0; i < 30; i++ {
			q := int32(rng.Intn(6))
			q2 := int32(rng.Intn(6))
			switch rng.Intn(8) {
			case 0:
				c.H(q)
			case 1:
				if q != q2 {
					c.CNOT(q, q2)
				}
			case 2:
				c.Reset(q)
			case 3:
				c.Measure(q)
				meas++
			case 4:
				c.XError(0.25, q)
			case 5:
				c.Depolarize1(0.125, q)
			case 6:
				if meas > 0 {
					c.Detector([]float64{float64(i)}, int32(rng.Intn(meas)))
				}
			case 7:
				if meas > 0 {
					c.Observable(0, int32(rng.Intn(meas)))
				}
			}
		}
		parsed, err := ParseTextString(c.Text())
		if err != nil {
			return false
		}
		return parsed.Text() == c.Text()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestOpTypeStrings(t *testing.T) {
	if OpH.String() != "H" || OpMeasureReset.String() != "MR" || OpObservable.String() != "OBSERVABLE_INCLUDE" {
		t.Error("op name mapping broken")
	}
	if !OpXError.IsNoise() || OpH.IsNoise() {
		t.Error("IsNoise wrong")
	}
	if !OpCNOT.IsTwoQubit() || OpH.IsTwoQubit() {
		t.Error("IsTwoQubit wrong")
	}
}
