package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/stats"
)

// adaptiveGrid spans the easy-to-rare range of the acceptance criteria:
// p from 1e-2 down to 1e-4, one policy, one distance — the axis that
// actually stresses the allocator.
func adaptiveGrid(ps []float64) Grid {
	return Grid{
		HW:         hardware.IBM(),
		Policies:   []core.Policy{core.Ideal},
		Distances:  []int{3},
		SlackNs:    []float64{500},
		ErrorRates: ps,
	}
}

// collectAdaptive runs an adaptive campaign into a JSONL buffer and a
// record slice.
func collectAdaptive(t *testing.T, g Grid, cfg Config, cache *BuildCache) ([]Record, []byte) {
	t.Helper()
	var buf bytes.Buffer
	var recs sliceSink
	camp := &Campaign{Grid: g, Config: cfg, Cache: cache,
		Sinks: []Sink{&JSONLWriter{W: &buf}, &recs}}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	return recs.recs, buf.Bytes()
}

// TestAdaptiveDeterminism is the allocator's half of the determinism
// contract: with a fixed campaign seed, runs with different worker
// counts must grant identical (point, seed, shots-granted) triples and
// emit byte-identical records.
// The budget is sized so the rarest point exhausts the pool, so the
// exhaustion path is covered by the byte comparison too.
func TestAdaptiveDeterminism(t *testing.T) {
	g := adaptiveGrid([]float64{1e-2, 1e-3, 1e-4})
	cache := NewBuildCache()
	base := Config{Shots: 16384, Seed: 4242, Workers: 1, Adaptive: &AdaptiveConfig{}}
	refRecs, refRaw := collectAdaptive(t, g, base, cache)
	ref := canonicalJSONL(t, refRaw)
	if len(refRecs) != 3 {
		t.Fatalf("3 records expected, got %d", len(refRecs))
	}
	for _, rec := range refRecs {
		if rec.ShotsGranted <= 0 || rec.ShotsGranted != rec.Shots {
			t.Fatalf("granted shots must be positive and mirrored into shots: %+v", rec)
		}
		if rec.StopReason == "" || rec.StopReason == StopFixed {
			t.Fatalf("adaptive record carries stop reason %q", rec.StopReason)
		}
	}

	for _, workers := range []int{4, 7} {
		variant := base
		variant.Workers = workers
		recs, raw := collectAdaptive(t, g, variant, cache)
		for i, rec := range recs {
			want := refRecs[i]
			if rec.Key != want.Key || rec.Seed != want.Seed || rec.ShotsGranted != want.ShotsGranted {
				t.Fatalf("workers=%d: triple (%s, %d, %d) != reference (%s, %d, %d)", workers,
					rec.Key, rec.Seed, rec.ShotsGranted, want.Key, want.Seed, want.ShotsGranted)
			}
		}
		if got := canonicalJSONL(t, raw); got != ref {
			t.Fatalf("workers=%d: records not byte-identical:\n%s\nvs reference:\n%s", workers, got, ref)
		}
	}
}

// TestAdaptiveResumeMatchesUninterrupted: a resumed adaptive campaign
// must emit exactly the records the uninterrupted run would have. The
// pool binds on this grid (the rarest point exhausts it), so a resume
// that pooled only the points still to run would grant them other
// budgets. The journal and record stream are cut after each of the
// first two records, as a crash between two emits leaves them, and then
// resumed with the same configuration.
func TestAdaptiveResumeMatchesUninterrupted(t *testing.T) {
	g := adaptiveGrid([]float64{1e-2, 1e-3, 1e-4})
	cfg := Config{Shots: 16384, Seed: 4242, Workers: 2, Adaptive: &AdaptiveConfig{}}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBuildCache()
	run := func(dir string, out *bytes.Buffer) Summary {
		t.Helper()
		man, err := OpenManifest(filepath.Join(dir, "manifest"), cfg, pts)
		if err != nil {
			t.Fatal(err)
		}
		defer man.Close()
		camp := &Campaign{Grid: g, Config: cfg, Cache: cache, Manifest: man,
			Sinks: []Sink{&JSONLWriter{W: out}}}
		sum, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	full := t.TempDir()
	var ref bytes.Buffer
	run(full, &ref)
	refLines := strings.SplitAfter(ref.String(), "\n")
	manifest, err := os.ReadFile(filepath.Join(full, "manifest"))
	if err != nil {
		t.Fatal(err)
	}
	manLines := strings.SplitAfter(string(manifest), "\n")
	if len(refLines) != 4 || len(manLines) != 5 { // trailing empty element
		t.Fatalf("uninterrupted run: %d record lines, %d manifest lines; want 3 and 4", len(refLines)-1, len(manLines)-1)
	}
	for cut := 1; cut <= 2; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest"), []byte(strings.Join(manLines[:1+cut], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.WriteString(strings.Join(refLines[:cut], ""))
		sum := run(dir, &out)
		if sum.Skipped != cut || sum.Executed != 3-cut {
			t.Fatalf("cut after %d: summary %+v, want %d skipped and %d executed", cut, sum, cut, 3-cut)
		}
		if got, want := canonicalJSONL(t, out.Bytes()), canonicalJSONL(t, ref.Bytes()); got != want {
			t.Fatalf("cut after %d: resumed records differ from the uninterrupted run:\n%s\nvs\n%s", cut, got, want)
		}
	}
	// A campaign with every point journaled runs nothing.
	hits, misses := cache.Stats()
	var none bytes.Buffer
	if sum := run(full, &none); sum.Skipped != 3 || sum.Executed != 0 || none.Len() != 0 {
		t.Fatalf("fully journaled rerun: summary %+v, %d bytes emitted", sum, none.Len())
	}
	if h, m := cache.Stats(); h != hits || m != misses {
		t.Fatal("a fully journaled rerun fetched pipelines")
	}
}

// TestAdaptiveSavesShots is the acceptance criterion: on a grid
// spanning p ∈ {1e-2, 1e-3, 1e-4}, every point must converge to the
// target relative CI, and the total granted budget must be at least 3×
// below the uniform fixed budget that reaches the same target on every
// point (numPoints × the worst point's analytic requirement).
func TestAdaptiveSavesShots(t *testing.T) {
	const target = 0.2
	ps := []float64{3e-2, 2e-2, 1e-2, 6e-3, 3e-3, 2e-3, 1e-3, 1e-4}
	g := adaptiveGrid(ps)
	cfg := Config{Shots: 65536, Seed: 7, Adaptive: &AdaptiveConfig{TargetRCI: target}}
	recs, _ := collectAdaptive(t, g, cfg, nil)
	if len(recs) != len(ps) {
		t.Fatalf("%d records expected, got %d", len(ps), len(recs))
	}

	granted := 0
	worstFixed := 0
	for _, rec := range recs {
		if !rec.Feasible {
			t.Fatalf("unexpected infeasible point %s", rec.Key)
		}
		if rec.StopReason != StopConverged {
			t.Fatalf("point %s stopped with %q (granted %d, rate %v, CI [%v, %v])",
				rec.Key, rec.StopReason, rec.ShotsGranted, rec.JointRate,
				rec.JointWilsonLow, rec.JointWilsonHigh)
		}
		if rci := (rec.JointWilsonHigh - rec.JointWilsonLow) / rec.JointRate; rci > target {
			t.Fatalf("point %s converged but reports relative CI %v > %v", rec.Key, rci, target)
		}
		if rec.Estimator != EstimatorMC {
			t.Fatalf("point %s (p=%v) used estimator %q, want %q", rec.Key, rec.P, rec.Estimator, EstimatorMC)
		}
		granted += rec.ShotsGranted
		// The fixed budget that reaches the target on every point is set
		// by the worst point; use each point's measured rate as its true
		// rate (the adaptive run pinned it to ±10%).
		if n := stats.FixedShotsForTarget(rec.JointRate, target, 1.96); n > worstFixed {
			worstFixed = n
		}
	}
	fixedTotal := worstFixed * len(recs)
	if fixedTotal < 3*granted {
		t.Fatalf("adaptive granted %d shots; equivalent fixed campaign needs %d (%d × %d) — less than the required 3× saving",
			granted, fixedTotal, len(recs), worstFixed)
	}
	t.Logf("adaptive: %d shots vs fixed %d — %.1f× saving", granted, fixedTotal, float64(fixedTotal)/float64(granted))
}

// TestAdaptiveRecordPurity: a record produced under adaptive allocation
// must be exactly the record of a fixed run of the granted budget —
// statistics are a pure function of (point, seed, shots-granted), never
// of the allocation history. The p = 1e-4 row is the rare regime, where
// every point is estimated by the same plain tally as a fixed run.
func TestAdaptiveRecordPurity(t *testing.T) {
	for _, p := range []float64{1e-3, 1e-4} {
		g := adaptiveGrid([]float64{p})
		cache := NewBuildCache()
		recs, _ := collectAdaptive(t, g,
			Config{Shots: 65536, Seed: 99, Adaptive: &AdaptiveConfig{TargetRCI: 0.15}}, cache)
		rec := recs[0]
		if rec.Estimator != EstimatorMC || rec.ShotsGranted <= 4096 {
			t.Fatalf("p=%v: test point should take several plain-MC checkpoints, got %+v", p, rec)
		}

		pts, err := g.Points()
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := ExecutePoint(cache, pts[0], Config{Shots: rec.ShotsGranted, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Seed != rec.Seed || fixed.Shots != rec.Shots ||
			fixed.JointErrors != rec.JointErrors || fixed.JointRate != rec.JointRate ||
			fixed.JointWilsonLow != rec.JointWilsonLow || fixed.JointWilsonHigh != rec.JointWilsonHigh ||
			fixed.SingleErrors != rec.SingleErrors || fixed.SingleRate != rec.SingleRate ||
			fixed.SingleWilsonLow != rec.SingleWilsonLow || fixed.SingleWilsonHigh != rec.SingleWilsonHigh ||
			fixed.MeanHammingWeight != rec.MeanHammingWeight {
			t.Fatalf("p=%v: adaptive record is not a pure function of the grant:\nadaptive: %+v\nfixed:    %+v", p, rec, fixed)
		}
	}
}

// TestAdaptiveShotProgress is the progress-total fix: under an adaptive
// budget the reported total must be the current checkpoint target,
// growing monotonically with each extra grant, with done never ahead of
// it. Run with a worker pool so the -race CI lane exercises the
// callback's concurrency contract too.
func TestAdaptiveShotProgress(t *testing.T) {
	g := adaptiveGrid([]float64{1e-3})
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lastTotal, maxDone int
	totals := map[int]bool{}
	cfg := Config{Shots: 1 << 20, Seed: 3, Workers: 4,
		Adaptive: &AdaptiveConfig{TargetRCI: 0.15},
		ShotProgress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total < lastTotal {
				t.Errorf("total shrank: %d after %d", total, lastTotal)
			}
			if done > total {
				t.Errorf("done %d ahead of total %d", done, total)
			}
			lastTotal = total
			if done > maxDone {
				maxDone = done
			}
			totals[total] = true
		}}
	rec, err := ExecutePoint(NewBuildCache(), pts[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.StopReason != StopConverged {
		t.Fatalf("point should converge within the budget: %+v", rec)
	}
	if len(totals) < 2 {
		t.Fatalf("the allocator granted extra checkpoints, so more than one total must be reported; saw %v", totals)
	}
	if maxDone != rec.ShotsGranted || lastTotal != rec.ShotsGranted {
		t.Fatalf("final progress (%d/%d) must land on the granted budget %d", maxDone, lastTotal, rec.ShotsGranted)
	}
}

// TestAdaptiveCancel: a campaign canceled mid-allocation returns the
// context's error and emits no record, because its tallies may be
// partial.
func TestAdaptiveCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var recs sliceSink
	cfg := Config{Shots: 1 << 20, Seed: 5, Workers: 2, Ctx: ctx,
		Adaptive: &AdaptiveConfig{TargetRCI: 0.01},
		ShotProgress: func(done, _ int) {
			if done >= 2*firstCheckpoint {
				cancel()
			}
		}}
	camp := &Campaign{Grid: adaptiveGrid([]float64{1e-3, 1e-4}), Config: cfg, Sinks: []Sink{&recs}}
	if _, err := camp.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned %v, want context.Canceled", err)
	}
	if len(recs.recs) != 0 {
		t.Fatalf("canceled campaign emitted %d records", len(recs.recs))
	}
}

// TestAdaptiveRejectsMaxPoints pins the config incompatibility.
func TestAdaptiveRejectsMaxPoints(t *testing.T) {
	camp := &Campaign{Grid: quickGrid(),
		Config: Config{MaxPoints: 1, Adaptive: &AdaptiveConfig{}}}
	if _, err := camp.Run(); err == nil {
		t.Fatal("MaxPoints with Adaptive must be rejected")
	}
}

// TestAdaptiveInfeasiblePoint: infeasible points are recorded with zero
// grant and consume no budget, in a campaign and as a single point.
func TestAdaptiveInfeasiblePoint(t *testing.T) {
	g := Grid{
		HW:       hardware.IBM(),
		Policies: []core.Policy{core.ExtraRounds}, // no Diophantine solution at equal cycles
	}
	for _, rec := range recordsBothWays(t, g, Config{Shots: 8192, Adaptive: &AdaptiveConfig{}}) {
		if rec.Feasible {
			t.Fatalf("infeasible point must yield a feasible=false record: %+v", rec)
		}
		// An adaptive record's shots is its grant, so 0 here.
		if rec.Shots != 0 || rec.ShotsGranted != 0 || rec.StopReason != StopInfeasible || rec.Estimator != "" {
			t.Fatalf("infeasible record must be (0, 0, %q, \"\"), got (%d, %d, %q, %q)",
				StopInfeasible, rec.Shots, rec.ShotsGranted, rec.StopReason, rec.Estimator)
		}
	}
}

// TestFixedRecordStopFields: the fixed path fills the new schema fields
// too, so downstream consumers see one consistent schema.
func TestFixedRecordStopFields(t *testing.T) {
	recs, err := Collect(quickGrid(), quickCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if !rec.Feasible {
			continue
		}
		if rec.ShotsGranted != rec.Shots || rec.StopReason != StopFixed || rec.Estimator != EstimatorMC {
			t.Fatalf("fixed record fields (%d, %q, %q) want (%d, %q, %q)",
				rec.ShotsGranted, rec.StopReason, rec.Estimator, rec.Shots, StopFixed, EstimatorMC)
		}
	}
}

// TestCheckpointLadder pins the canonical ladder's shape: shard-aligned,
// strictly increasing, capped.
func TestCheckpointLadder(t *testing.T) {
	a := AdaptiveConfig{}.WithDefaults()
	if firstCheckpoint != 4096 {
		t.Fatalf("first checkpoint %d, want 4096", firstCheckpoint)
	}
	c, seen := firstCheckpoint, 0
	for c < a.maxCheckpoint() {
		n := a.nextCheckpoint(c)
		if n <= c || n%4096 != 0 {
			t.Fatalf("ladder must strictly increase in shard steps: %d -> %d", c, n)
		}
		// Growth is bounded: never more than 2× plus one shard, so
		// overshoot past the stopping point stays modest.
		if n > 2*c+4096 {
			t.Fatalf("ladder grows too fast: %d -> %d", c, n)
		}
		c = n
		if seen++; seen > 100 {
			t.Fatal("ladder failed to reach the cap")
		}
	}
	if c != a.maxCheckpoint() {
		t.Fatalf("ladder must end at the cap: %d != %d", c, a.maxCheckpoint())
	}
	// An unaligned cap is aligned down, not rejected.
	if m := (AdaptiveConfig{MaxShots: 100000}).WithDefaults().maxCheckpoint(); m != 98304 {
		t.Fatalf("alignment: max=%d, want 98304", m)
	}
}
