package exp

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/surface"
)

var quickOpts = Options{Shots: 3000, MaxD: 3, Seed: 11}

func TestPipelineBasics(t *testing.T) {
	res, err := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mc.NewPipeline(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	r := pl.Run(5000, 3)
	if r.Shots != 5000 {
		t.Fatalf("shots = %d", r.Shots)
	}
	for o := 0; o < 2; o++ {
		if rate := r.Rate(o); rate <= 0 || rate > 0.2 {
			t.Fatalf("obs %d LER %v implausible for d=3 p=1e-3", o, rate)
		}
	}
	if r.MeanHammingWeight() <= 0 {
		t.Fatal("no syndrome weight recorded")
	}
	if b := r.Binomial(0); b.Trials != 5000 {
		t.Fatal("binomial accounting broken")
	}
}

func TestPipelineDeterministicSeed(t *testing.T) {
	res, err := surface.MergeSpec{D: 3, Basis: surface.BasisZ, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl1, _ := mc.NewPipeline(res.Circuit)
	pl2, _ := mc.NewPipeline(res.Circuit)
	a := pl1.Run(2000, 42)
	b := pl2.Run(2000, 42)
	if a.Errors[0] != b.Errors[0] || a.Errors[1] != b.Errors[1] {
		t.Fatal("same seed must give identical results")
	}
}

// TestLERFallsWithDistance: the substrate's most basic physics check.
func TestLERFallsWithDistance(t *testing.T) {
	rates := map[int]float64{}
	for _, d := range []int{3, 5} {
		res, err := surface.MergeSpec{D: d, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mc.NewPipeline(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		rates[d] = pl.Run(20000, 5).Rate(surface.ObsJoint)
	}
	if rates[5] >= rates[3] {
		t.Fatalf("LER(d=5)=%v must be below LER(d=3)=%v at p=1e-3", rates[5], rates[3])
	}
}

// TestActiveBeatsPassive is the paper's headline claim, asserted at
// statistically robust scale on the weak-coherence platform.
func TestActiveBeatsPassive(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const shots = 60000
	pass, _, err := runPolicy(5, surface.BasisX, hardware.Google(), paperP, core.Passive, 1000, 0, 0, 0, shots, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	act, _, err := runPolicy(5, surface.BasisX, hardware.Google(), paperP, core.Active, 1000, 0, 0, 0, shots, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := pass.Rate(surface.ObsSingle)
	a := act.Rate(surface.ObsSingle)
	if a >= p {
		t.Fatalf("Active LER %v must beat Passive %v (d=5, tau=1000, Google)", a, p)
	}
	// The reduction should be a meaningful fraction, not noise: require
	// at least 5% at this scale (the paper reports ~15-40% at d=5-7).
	if (p-a)/p < 0.05 {
		t.Fatalf("reduction %.1f%% too small to be the real effect", 100*(p-a)/p)
	}
}

// TestPassiveSpikesAtMergeRound asserts the Fig. 7(b) signature: the
// Passive policy's syndrome weight spikes in the Lattice Surgery round.
func TestPassiveSpikesAtMergeRound(t *testing.T) {
	weights := map[core.Policy]map[int]float64{}
	var mergeRound int
	for _, pol := range []core.Policy{core.Passive, core.Active} {
		spec, _, _ := SpecForPolicy(5, surface.BasisX, hardware.Google(), paperP, pol, 1000, 0, 0, 0)
		res, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mc.NewPipeline(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		weights[pol] = pl.RoundWeights(20000, 9)
		mergeRound = res.MergeRound
	}
	pw := weights[core.Passive][mergeRound]
	aw := weights[core.Active][mergeRound]
	if pw <= aw {
		t.Fatalf("Passive merge-round weight %v must exceed Active %v", pw, aw)
	}
}

func TestSpecForPolicyShapes(t *testing.T) {
	// Passive: all slack lumped.
	spec, plan, ok := SpecForPolicy(3, surface.BasisX, hardware.IBM(), 1e-3, core.Passive, 700, 0, 0, 0)
	if !ok || spec.LumpedIdleNs != 700 || spec.SpreadIdleNs != 0 {
		t.Fatalf("passive spec: %+v", spec)
	}
	if plan.TotalIdleNs() != 700 {
		t.Fatal("plan idle mismatch")
	}
	// Hybrid: extra rounds plus residual spread.
	spec, plan, ok = SpecForPolicy(3, surface.BasisX, hardware.IBM().Scaled(1000), 1e-3, core.Hybrid, 1000, 1000, 1325, 400)
	if !ok {
		t.Fatal("hybrid must be feasible (Table 2 config)")
	}
	if spec.RoundsP != 3+1+4 || spec.SpreadIdleNs != 300 {
		t.Fatalf("hybrid spec: roundsP=%d spread=%v (want 8, 300)", spec.RoundsP, spec.SpreadIdleNs)
	}
	if plan.ExtraRoundsP != 4 {
		t.Fatal("hybrid plan rounds mismatch")
	}
	// ExtraRounds with equal cycles: infeasible.
	if _, _, ok := SpecForPolicy(3, surface.BasisX, hardware.IBM(), 1e-3, core.ExtraRounds, 500, 0, 0, 0); ok {
		t.Fatal("equal cycles must make ExtraRounds infeasible")
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{
		"fig1c", "fig1d", "fig3c", "fig4a", "fig4b", "fig6", "fig7a", "fig7b",
		"fig10", "fig11", "fig14", "fig15", "fig16", "fig17", "fig18a", "fig18b",
		"fig19", "fig20", "fig21", "fig22", "table1", "table2", "table4", "table5",
	} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted garbage")
	}
}

// TestAllExperimentsRun executes every runner end-to-end at tiny scale.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, quickOpts); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			if !strings.Contains(buf.String(), "==") {
				t.Fatalf("%s missing header", e.ID)
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Shots == 0 || o.MaxD == 0 || o.Seed == 0 {
		t.Fatal("defaults not applied")
	}
	o2 := Options{Shots: 5, MaxD: 9, Seed: 1}.withDefaults()
	if o2.Shots != 5 || o2.MaxD != 9 || o2.Seed != 1 {
		t.Fatal("explicit options overridden")
	}
}

func TestFig10Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig10(&buf, quickOpts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Not possible", " 5 ", "11", "22", "26", "52", "34", "68"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig10 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable5Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table5(&buf, quickOpts); err != nil {
		t.Fatal(err)
	}
	// Spot-check the worst-case values from the paper's table.
	out := buf.String()
	if !strings.Contains(out, "12") || !strings.Contains(out, "10") {
		t.Errorf("table5 output missing expected extra-round values:\n%s", out)
	}
}

func TestRatioGuards(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(0, 0) != 1 || ratio(4, 2) != 2 {
		t.Fatal("ratio guards broken")
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)
