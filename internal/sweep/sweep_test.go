package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"latticesim/internal/core"
	"latticesim/internal/decoder"
	"latticesim/internal/dem"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/surface"
)

// quickGrid repeats build artifacts on purpose: Ideal ignores the slack
// axis, so its two slack values resolve to one spec while Passive's two
// resolve to two. 4 points, 3 unique artifacts.
func quickGrid() Grid {
	return Grid{
		HW:        hardware.Google(),
		Policies:  []core.Policy{core.Ideal, core.Passive},
		Distances: []int{3},
		SlackNs:   []float64{500, 1000},
	}
}

var quickCfg = Config{Shots: 1024, Seed: 99}

func TestGridExpansion(t *testing.T) {
	pts, err := quickGrid().Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("4 points expected, got %d", len(pts))
	}
	// Canonical order: policy is the slowest axis, slack faster.
	want := []struct {
		pol core.Policy
		tau float64
	}{{core.Ideal, 500}, {core.Ideal, 1000}, {core.Passive, 500}, {core.Passive, 1000}}
	base := hardware.Google().CycleNs()
	for i, pt := range pts {
		if pt.Policy != want[i].pol || pt.TauNs != want[i].tau {
			t.Fatalf("point %d = %s, want policy=%s tau=%v", i, pt.Key(), want[i].pol, want[i].tau)
		}
		if pt.CyclePNs != base || pt.CyclePPrimeNs != base {
			t.Fatalf("point %d cycles not resolved to hardware base: %s", i, pt.Key())
		}
		if pt.P != 1e-3 || pt.Basis != surface.BasisX {
			t.Fatalf("point %d defaults not applied: %s", i, pt.Key())
		}
	}
}

func TestGridDeduplicatesPoints(t *testing.T) {
	g := quickGrid()
	// 0 resolves to the base cycle, so these two entries are one point;
	// the duplicated slack axis entry collapses too.
	g.CyclePPrimeNs = []float64{0, hardware.Google().CycleNs()}
	g.SlackNs = []float64{500, 500, 1000}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("duplicate coordinates must collapse: got %d points, want 4", len(pts))
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := (Grid{Distances: []int{4}}).Points(); err == nil {
		t.Fatal("even distance must be rejected")
	}
	if _, err := (Grid{Distances: []int{1}}).Points(); err == nil {
		t.Fatal("distance 1 must be rejected")
	}
	if _, err := (Grid{ErrorRates: []float64{0.7}}).Points(); err == nil {
		t.Fatal("error rate 0.7 must be rejected")
	}
}

func TestPointSeeds(t *testing.T) {
	pts, err := quickGrid().Points()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{}
	for _, pt := range pts {
		s := pt.Seed(quickCfg.Seed)
		if s != pt.Seed(quickCfg.Seed) {
			t.Fatal("seed must be deterministic")
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %q and %q", prev, pt.Key())
		}
		seen[s] = pt.Key()
		if pt.Seed(quickCfg.Seed) == pt.Seed(quickCfg.Seed+1) {
			t.Fatalf("campaign seed must perturb point seed for %q", pt.Key())
		}
	}
}

// TestCacheBuildsEachArtifactOnce is the acceptance criterion for the
// artifact cache: a grid with repeated (d, p, basis) specs builds each
// circuit/DEM/decoder-graph exactly once, which the dem and decoder
// build counters witness end to end.
func TestCacheBuildsEachArtifactOnce(t *testing.T) {
	cache := NewBuildCache()
	dem0, graph0 := dem.BuildCount(), decoder.GraphBuilds()
	recs, err := Collect(quickGrid(), quickCfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("4 records expected, got %d", len(recs))
	}
	hits, misses := cache.Stats()
	if misses != 3 || hits != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/3 (Ideal's slacks share one spec)", hits, misses)
	}
	if built := dem.BuildCount() - dem0; built != 3 {
		t.Fatalf("DEM extracted %d times, want exactly once per unique spec (3)", built)
	}
	if built := decoder.GraphBuilds() - graph0; built != 3 {
		t.Fatalf("decoder graph built %d times, want exactly once per unique spec (3)", built)
	}

	// A second campaign over the same grid through the same cache builds
	// nothing at all.
	if _, err := Collect(quickGrid(), quickCfg, cache); err != nil {
		t.Fatal(err)
	}
	if built := dem.BuildCount() - dem0; built != 3 {
		t.Fatalf("re-running the grid extracted %d DEMs, want still 3", built)
	}
	if hits, misses = cache.Stats(); misses != 3 || hits != 5 {
		t.Fatalf("after rerun cache hits/misses = %d/%d, want 5/3", hits, misses)
	}
}

// concurrentGets has n goroutines Get one spec behind a start barrier,
// so their lookups race, and returns what each caller got.
func concurrentGets(cache *BuildCache, spec surface.MergeSpec, n int) ([]*mc.Pipeline, []error) {
	pls, errs := make([]*mc.Pipeline, n), make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			pls[i], _, errs[i] = cache.Get(spec)
		}()
	}
	close(start)
	wg.Wait()
	return pls, errs
}

// TestCacheGetSingleFlight: concurrent misses on one spec build it once,
// and every caller shares the one pipeline — misses counts pipeline
// builds, so the callers that waited count as hits.
func TestCacheGetSingleFlight(t *testing.T) {
	cache := NewBuildCache()
	spec := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.Google(), P: 1e-3}
	dem0 := dem.BuildCount()
	pls, errs := concurrentGets(cache, spec, 8)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if pls[i] != pls[0] {
			t.Fatalf("caller %d got a different *mc.Pipeline than caller 0", i)
		}
	}
	if built := dem.BuildCount() - dem0; built != 1 {
		t.Fatalf("8 concurrent Gets extracted %d DEMs, want 1", built)
	}
	if hits, misses := cache.Stats(); hits != 7 || misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 7/1", hits, misses)
	}

	// A failed build reaches every caller and is not cached.
	bad := spec
	bad.D = 4
	if _, errs = concurrentGets(cache, bad, 8); errs[0] == nil {
		t.Fatal("an even-distance spec built")
	}
	for i, err := range errs {
		if err == nil || err.Error() != errs[0].Error() {
			t.Fatalf("caller %d: error %v, want %v", i, err, errs[0])
		}
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache holds %d pipelines after a failed build, want 1", n)
	}
}

// TestCacheHitRecordsMatchCacheMiss: the record of a point served from
// the cache must equal the record the point would produce with a cold
// cache (the artifacts carry no per-point state).
func TestCacheHitRecordsMatchCacheMiss(t *testing.T) {
	warm, err := Collect(quickGrid(), quickCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range warm {
		g := quickGrid()
		g.Policies = []core.Policy{[]core.Policy{core.Ideal, core.Passive}[i/2]}
		g.SlackNs = []float64{[]float64{500, 1000}[i%2]}
		solo, err := Collect(g, quickCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := rec.CanonicalJSON()
		b, _ := solo[0].CanonicalJSON()
		if !bytes.Equal(a, b) {
			t.Fatalf("record %d differs when run in isolation:\ncampaign: %s\nisolated: %s", i, a, b)
		}
	}
}

// canonicalJSONL renders a JSONL buffer with wall-time zeroed, the form
// the determinism contract compares byte for byte.
func canonicalJSONL(t *testing.T, raw []byte) string {
	t.Helper()
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		b, err := rec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.String()
}

// runCampaign executes the quick grid with the given worker count and an
// optional interrupt/resume split, returning the concatenated JSONL.
func runCampaign(t *testing.T, workers, maxPoints int) []byte {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	for {
		pts, err := quickGrid().Points()
		if err != nil {
			t.Fatal(err)
		}
		man, err := OpenManifest(filepath.Join(dir, "manifest"), quickCfg, pts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickCfg
		cfg.Workers = workers
		cfg.MaxPoints = maxPoints
		camp := &Campaign{
			Grid: quickGrid(), Config: cfg, Manifest: man,
			Sinks: []Sink{&JSONLWriter{W: &buf}},
		}
		sum, err := camp.Run()
		man.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !sum.Interrupted {
			if sum.Executed+sum.Skipped != sum.Points {
				t.Fatalf("summary does not cover the grid: %+v", sum)
			}
			return buf.Bytes()
		}
	}
}

// TestSharedCacheConcurrentCampaigns: a cache may be shared by
// concurrently running campaigns with different worker counts. Cached
// pipelines must never be mutated (each point runs on a shallow copy);
// the race detector asserts that, and the records must still be
// identical to each other modulo wall time.
func TestSharedCacheConcurrentCampaigns(t *testing.T) {
	cache := NewBuildCache()
	results := make([][]Record, 2)
	var wg sync.WaitGroup
	for i, workers := range []int{1, 4} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := quickCfg
			cfg.Workers = workers
			recs, err := Collect(quickGrid(), cfg, cache)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = recs
		}()
	}
	wg.Wait()
	if len(results[0]) != len(results[1]) || len(results[0]) == 0 {
		t.Fatalf("campaigns returned %d vs %d records", len(results[0]), len(results[1]))
	}
	for i := range results[0] {
		a, _ := results[0][i].CanonicalJSON()
		b, _ := results[1][i].CanonicalJSON()
		if !bytes.Equal(a, b) {
			t.Fatalf("concurrent campaigns diverged at record %d:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestDeterminismAcrossWorkersAndResume is the sweep determinism
// contract: the same grid run with 1 worker, with many workers, and
// split across an interrupt/resume boundary produces byte-identical
// JSONL records modulo the wall-time field.
func TestDeterminismAcrossWorkersAndResume(t *testing.T) {
	ref := canonicalJSONL(t, runCampaign(t, 1, 0))
	if got := canonicalJSONL(t, runCampaign(t, 4, 0)); got != ref {
		t.Fatalf("workers=4 records differ from workers=1:\n%s\nvs\n%s", got, ref)
	}
	// Interrupt after every single point, resuming each time.
	if got := canonicalJSONL(t, runCampaign(t, 2, 1)); got != ref {
		t.Fatalf("interrupt/resume records differ from one-shot run:\n%s\nvs\n%s", got, ref)
	}
}

func TestManifestRejectsDifferentCampaign(t *testing.T) {
	dir := t.TempDir()
	pts, err := quickGrid().Points()
	if err != nil {
		t.Fatal(err)
	}
	fixed := Config{Seed: 1, Shots: 1024}
	path := filepath.Join(dir, "manifest")
	man, err := OpenManifest(path, fixed, pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.MarkDone(pts[0].Key()); err != nil {
		t.Fatal(err)
	}
	man.Close()

	adaptive := fixed
	adaptive.Adaptive = &AdaptiveConfig{TargetRCI: 0.5}
	for _, tc := range []struct {
		name string
		cfg  Config
		pts  []Point
	}{
		{"seed", Config{Seed: 2, Shots: 1024}, pts},
		{"shot budget", Config{Seed: 1, Shots: 2048}, pts},
		{"grid", fixed, pts[:3]},
		{"fixed to adaptive", adaptive, pts},
	} {
		if _, err := OpenManifest(path, tc.cfg, tc.pts); err == nil {
			t.Fatalf("manifest must reject a different %s", tc.name)
		}
	}
	man, err = OpenManifest(path, fixed, pts)
	if err != nil {
		t.Fatalf("same campaign must resume: %v", err)
	}
	if !man.Done(pts[0].Key()) || man.Done(pts[1].Key()) || man.NumDone() != 1 {
		t.Fatal("resumed manifest lost the completed point set")
	}
	man.Close()

	// An adaptive campaign pins its resolved budget knobs: another
	// target, another cap, or a fixed budget is a different campaign.
	apath := filepath.Join(dir, "adaptive-manifest")
	if man, err = OpenManifest(apath, adaptive, pts); err != nil {
		t.Fatal(err)
	}
	man.Close()
	for _, tc := range []struct {
		name string
		cfg  *AdaptiveConfig
	}{
		{"adaptive to fixed", nil},
		{"target_rci", &AdaptiveConfig{TargetRCI: 0.3}},
		{"max_shots", &AdaptiveConfig{TargetRCI: 0.5, MaxShots: 1 << 16}},
	} {
		cfg := fixed
		cfg.Adaptive = tc.cfg
		if _, err := OpenManifest(apath, cfg, pts); err == nil {
			t.Fatalf("adaptive manifest must reject a different %s", tc.name)
		}
	}
	// The same campaign resumes, with the cap given explicitly at its
	// default: the header pins resolved values, not flag spellings.
	same := fixed
	same.Adaptive = &AdaptiveConfig{TargetRCI: 0.5, MaxShots: 1 << 20}
	if man, err = OpenManifest(apath, same, pts); err != nil {
		t.Fatalf("same adaptive campaign must resume: %v", err)
	}
	man.Close()
}

func TestInfeasiblePointsAreRecorded(t *testing.T) {
	// Extra Rounds with equal cycle times has no Diophantine solution.
	g := Grid{
		HW:       hardware.IBM(),
		Policies: []core.Policy{core.ExtraRounds},
	}
	for _, rec := range recordsBothWays(t, g, quickCfg) {
		if rec.Feasible {
			t.Fatalf("infeasible point must yield a feasible=false record: %+v", rec)
		}
		// A fixed record names its budget even though it ran nothing.
		if rec.Shots != quickCfg.Shots || rec.ShotsGranted != 0 ||
			rec.StopReason != StopInfeasible || rec.Estimator != "" {
			t.Fatalf("infeasible fixed record must be (shots %d, 0, %q, \"\"), got (%d, %d, %q, %q)",
				quickCfg.Shots, StopInfeasible, rec.Shots, rec.ShotsGranted, rec.StopReason, rec.Estimator)
		}
		if rec.JointErrors != 0 || rec.MeanHammingWeight != 0 {
			t.Fatalf("infeasible record must carry no statistics: %+v", rec)
		}
	}
}

// recordsBothWays runs g through Campaign.Run and each of its points
// through ExecutePoint, requires the two to agree on every record
// (wall_ms aside), and returns the records with wall_ms zeroed. Only
// grids whose campaign gives each point cfg.Shots qualify: fixed grids,
// and adaptive grids of one point.
func recordsBothWays(t *testing.T, g Grid, cfg Config) []Record {
	t.Helper()
	recs, err := Collect(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(pts) {
		t.Fatalf("%d records for %d points", len(recs), len(pts))
	}
	cache := NewBuildCache()
	for i, pt := range pts {
		rec, err := ExecutePoint(cache, pt, cfg.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		recs[i].WallMs, rec.WallMs = 0, 0
		if rec != recs[i] {
			t.Fatalf("Campaign.Run and ExecutePoint disagree on %s:\ncampaign: %+v\npoint:    %+v", pt.Key(), recs[i], rec)
		}
	}
	return recs
}

// TestCSVMatchesJSONLSchema: every CSV row has exactly the documented
// header's columns and round-trips the same values the JSON carries.
func TestCSVMatchesJSONLSchema(t *testing.T) {
	recs, err := Collect(quickGrid(), quickCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	if err := cw.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(recs)+1 {
		t.Fatalf("%d rows for %d records", len(rows), len(recs))
	}
	header := CSVHeader()
	for i, row := range rows {
		if len(row) != len(header) {
			t.Fatalf("row %d has %d columns, header has %d", i, len(row), len(header))
		}
	}
	// Spot-check a few columns against the struct values.
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("missing column %s", name)
		return -1
	}
	for i, r := range recs {
		row := rows[i+1]
		if row[col("key")] != r.Key || row[col("policy")] != r.Policy {
			t.Fatalf("row %d identity mismatch: %v", i, row)
		}
		if row[col("joint_errors")] != strconv.Itoa(r.JointErrors) {
			t.Fatalf("row %d joint_errors %q != %d", i, row[col("joint_errors")], r.JointErrors)
		}
		if row[col("seed")] != strconv.FormatUint(r.Seed, 10) {
			t.Fatalf("row %d seed %q != %d", i, row[col("seed")], r.Seed)
		}
	}
}

func TestSpecKeyCanonicalizesDefaults(t *testing.T) {
	hw := hardware.IBM()
	implicit := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hw, P: 1e-3}
	explicit := surface.MergeSpec{
		D: 3, Basis: surface.BasisX, HW: hw, P: 1e-3,
		CyclePNs: hw.CycleNs(), CyclePPrimeNs: hw.CycleNs(),
		RoundsP: 4, RoundsPPrime: 4, RoundsMerged: 4,
	}
	if SpecKey(implicit) != SpecKey(explicit) {
		t.Fatalf("defaulted and explicit specs must share a key:\n%s\n%s",
			SpecKey(implicit), SpecKey(explicit))
	}
	other := explicit
	other.RoundsP = 6
	if SpecKey(other) == SpecKey(explicit) {
		t.Fatal("different round counts must not collide")
	}
}
