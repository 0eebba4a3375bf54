package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
	"latticesim/internal/trace"
)

// newTestServer spins up a service with its HTTP front end and returns
// a client wired to it.
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, NewClient(hs.URL)
}

func sweepSpec(tau float64, shots int, seed uint64) JobSpec {
	return JobSpec{Type: "sweep", Sweep: &SweepJob{
		Policy: "Passive", TauNs: tau, Shots: shots, Seed: seed,
	}}
}

const testTrace = `PATCH A 1000
PATCH B 1105
IDLE B 2
MERGE A B
IDLE A 1
MERGE A B
`

func traceSpec(shots int, seed uint64) JobSpec {
	return JobSpec{Type: "trace", Trace: &TraceJob{
		TraceText: testTrace, Policies: []string{"Passive", "Hybrid"},
		Shots: shots, Seed: seed,
	}}
}

// TestSweepJobEndToEnd drives the full submit→watch→result round trip
// over HTTP, checks the result matches a direct batch-layer execution
// bit for bit, and verifies the second identical submission is a cache
// hit serving identical bytes.
func TestSweepJobEndToEnd(t *testing.T) {
	_, client := newTestServer(t, Options{DataDir: t.TempDir(), MCWorkers: 1})
	ctx := context.Background()

	spec := sweepSpec(1000, 512, 7)
	var snapshots []JobStatus
	st, data, err := client.Run(ctx, spec, func(s JobStatus) { snapshots = append(snapshots, s) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.State != StateDone || st.CacheHit {
		t.Fatalf("first run: state=%s cache_hit=%v, want done/false", st.State, st.CacheHit)
	}
	if len(snapshots) == 0 {
		t.Fatal("watch delivered no snapshots")
	}
	final := snapshots[len(snapshots)-1]
	if final.Progress.Done != 512 || final.Progress.Total != 512 || final.Progress.Unit != "shots" {
		t.Fatalf("final progress = %+v, want 512/512 shots", final.Progress)
	}

	// The service result must be exactly the batch layer's canonical
	// record — same physics, same bytes.
	hw := hardware.IBM()
	pt := sweep.Point{
		HW: hw, Policy: core.Passive, D: 3, TauNs: 1000, P: 1e-3, Basis: surface.BasisX,
		CyclePNs: hw.CycleNs(), CyclePPrimeNs: hw.CycleNs(),
	}
	rec, err := sweep.ExecutePoint(sweep.NewBuildCache(), pt, sweep.Config{Shots: 512, Seed: 7}.WithDefaults())
	if err != nil {
		t.Fatalf("ExecutePoint: %v", err)
	}
	want, err := rec.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("service result differs from direct execution:\nservice: %s\ndirect:  %s", data, want)
	}

	st2, data2, err := client.Run(ctx, spec, nil)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("second run: state=%s cache_hit=%v, want done/true", st2.State, st2.CacheHit)
	}
	if st2.ID == st.ID {
		t.Fatalf("cache-hit submission reused job ID %s", st.ID)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("cache hit returned different bytes:\nfirst:  %s\nsecond: %s", data, data2)
	}
}

// TestAdaptiveSweepJob covers the adaptive job surface: spec echo
// round-trips to the same content key, adaptive and fixed submissions
// address different results, setting TargetRCI alone implies adaptive,
// and the served bytes match a direct adaptive execution.
func TestAdaptiveSweepJob(t *testing.T) {
	spec := JobSpec{Type: "sweep", Sweep: &SweepJob{
		Policy: "Passive", TauNs: 1000, Shots: 8192, Seed: 7, TargetRCI: 0.9,
	}}
	r, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	echo := r.spec.Sweep
	if !echo.Adaptive || echo.TargetRCI != 0.9 || echo.MaxShots != 1<<20 {
		t.Fatalf("echo = %+v, want adaptive with resolved target_rci/max_shots", echo)
	}
	kEcho, err := r.spec.ContentKey()
	if err != nil {
		t.Fatalf("ContentKey(echo): %v", err)
	}
	if kEcho != r.key {
		t.Fatalf("echo does not round-trip: %s != %s", kEcho, r.key)
	}
	kFixed, err := sweepSpec(1000, 8192, 7).ContentKey()
	if err != nil {
		t.Fatalf("ContentKey(fixed): %v", err)
	}
	if kFixed == r.key {
		t.Fatal("adaptive and fixed jobs share a content key")
	}
	explicit := JobSpec{Type: "sweep", Sweep: &SweepJob{
		Policy: "Passive", TauNs: 1000, Shots: 8192, Seed: 7, Adaptive: true, TargetRCI: 0.9,
	}}
	kExplicit, err := explicit.ContentKey()
	if err != nil {
		t.Fatalf("ContentKey(explicit): %v", err)
	}
	if kExplicit != r.key {
		t.Fatal("adaptive=true and implied-by-target_rci specs diverge")
	}

	_, client := newTestServer(t, Options{DataDir: t.TempDir(), MCWorkers: 2})
	st, data, err := client.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state=%s error=%q, want done", st.State, st.Error)
	}
	var rec sweep.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("result is not a record: %v", err)
	}
	if rec.StopReason != sweep.StopConverged || rec.ShotsGranted <= 0 || rec.Estimator != sweep.EstimatorMC {
		t.Fatalf("record stop fields = (%q, %d, %q), want converged at > 0 shots via mc",
			rec.StopReason, rec.ShotsGranted, rec.Estimator)
	}
	if st.Progress.Done != rec.ShotsGranted || st.Progress.Unit != "shots" {
		t.Fatalf("final progress = %+v, want done=%d shots", st.Progress, rec.ShotsGranted)
	}

	hw := hardware.IBM()
	pt := sweep.Point{
		HW: hw, Policy: core.Passive, D: 3, TauNs: 1000, P: 1e-3, Basis: surface.BasisX,
		CyclePNs: hw.CycleNs(), CyclePPrimeNs: hw.CycleNs(),
	}
	cfg := sweep.Config{Shots: 8192, Seed: 7}.WithDefaults()
	cfg.Adaptive = &sweep.AdaptiveConfig{TargetRCI: 0.9}
	direct, err := sweep.ExecutePoint(sweep.NewBuildCache(), pt, cfg)
	if err != nil {
		t.Fatalf("ExecutePoint: %v", err)
	}
	want, err := direct.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("service result differs from direct adaptive execution:\nservice: %s\ndirect:  %s", data, want)
	}
}

// TestTraceJobEndToEnd does the same round trip for a trace job,
// including schema equality with the direct simulation.
func TestTraceJobEndToEnd(t *testing.T) {
	_, client := newTestServer(t, Options{MCWorkers: 1})
	ctx := context.Background()

	spec := traceSpec(256, 9)
	st, data, err := client.Run(ctx, spec, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state=%s error=%q, want done", st.State, st.Error)
	}
	if st.Progress.Unit != "merges" || st.Progress.Done != st.Progress.Total || st.Progress.Total != 4 {
		t.Fatalf("final progress = %+v, want 4/4 merges", st.Progress)
	}

	prog, err := trace.ParseString(testTrace)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	cfg := trace.Config{HW: hardware.IBM().Scaled(1000), Basis: surface.BasisX, Shots: 256, Seed: 9}.WithDefaults()
	results, err := trace.SimulateAll(prog, j(spec).pols, cfg)
	if err != nil {
		t.Fatalf("SimulateAll: %v", err)
	}
	want, err := json.Marshal(trace.NewResultSet(prog, cfg, "", results))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("service result differs from direct simulation:\nservice: %s\ndirect:  %s", data, want)
	}

	st2, data2, err := client.Run(ctx, spec, nil)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !st2.CacheHit {
		t.Fatalf("second run: cache_hit=%v, want true", st2.CacheHit)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("cache hit returned different bytes")
	}
}

// j resolves a spec the test knows is valid.
func j(spec JobSpec) *resolvedJob {
	r, err := spec.resolve()
	if err != nil {
		panic(err)
	}
	return r
}

// TestConcurrentJobs pushes a mixed batch of 10 distinct jobs through
// the queue from concurrent clients (the acceptance criterion's ≥ 8,
// exercised under -race), then resubmits every one and requires a
// byte-identical cache hit — i.e. the queue, the shared build cache and
// the store kept full determinism under concurrency.
func TestConcurrentJobs(t *testing.T) {
	srv, client := newTestServer(t, Options{DataDir: t.TempDir(), Workers: 4, MCWorkers: 1})
	ctx := context.Background()

	var specs []JobSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, sweepSpec(float64(500+100*i), 256, uint64(i+1)))
	}
	specs = append(specs, traceSpec(128, 3), traceSpec(128, 4))

	first := make([][]byte, len(specs))
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			st, data, err := client.Run(ctx, spec, nil)
			if err == nil && st.State != StateDone {
				err = fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
			}
			first[i], errs[i] = data, err
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	stats := srv.Stats()
	if stats.Done < len(specs) {
		t.Fatalf("stats.Done = %d, want ≥ %d", stats.Done, len(specs))
	}
	if stats.Failed != 0 {
		t.Fatalf("stats.Failed = %d, want 0", stats.Failed)
	}

	for i, spec := range specs {
		st, data, err := client.Run(ctx, spec, nil)
		if err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		if !st.CacheHit {
			t.Fatalf("resubmit %d: cache_hit=false", i)
		}
		if !bytes.Equal(data, first[i]) {
			t.Fatalf("resubmit %d: bytes differ from first execution", i)
		}
	}
}

// TestInFlightCoalescing submits the same spec twice back-to-back: the
// second submission must either join the live job (same ID) or hit the
// store, never run twice.
func TestInFlightCoalescing(t *testing.T) {
	srv, client := newTestServer(t, Options{MCWorkers: 1})
	ctx := context.Background()

	spec := sweepSpec(750, 512, 11)
	stA, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	stB, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	if !stB.CacheHit && stB.ID != stA.ID {
		t.Fatalf("identical in-flight submissions got distinct jobs %s and %s", stA.ID, stB.ID)
	}
	finA, err := client.Watch(ctx, stA.ID, nil)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if finA.State != StateDone {
		t.Fatalf("job finished %s: %s", finA.State, finA.Error)
	}
	// Exactly one execution must have stored the result.
	if puts, _ := srv.Store().Stats(); puts != 1 {
		t.Fatalf("store puts = %d, want 1", puts)
	}
}

// TestResubmitInSettleWindow freezes the moment between a job's
// terminal transition and settle freeing its in-flight slot: a
// resubmission then defers to the store — a fresh job when nothing is
// stored, a cache hit when the result is — instead of coalescing onto
// the finished job, and the finished job's settle leaves the fresh
// job's slot alone.
func TestResubmitInSettleWindow(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: -1})
	spec := sweepSpec(1000, 64, 61)
	finish := func(id string) *job { // terminal, slot not yet freed
		srv.mu.Lock()
		j := srv.jobs[id]
		srv.mu.Unlock()
		j.mu.Lock()
		j.status.State = StateFailed
		j.mu.Unlock()
		return j
	}
	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	old := finish(first.ID)
	fresh, err := srv.Submit(spec)
	if err != nil || fresh.ID == first.ID || fresh.State != StateQueued {
		t.Fatalf("resubmission = %s %s (%v), want a fresh queued job, not %s", fresh.ID, fresh.State, err, first.ID)
	}
	srv.settle(old)
	if again, _ := srv.Submit(spec); again.ID != fresh.ID {
		t.Fatalf("settling %s freed the slot of %s: resubmission got %s", first.ID, fresh.ID, again.ID)
	}

	finish(fresh.ID)
	if err := srv.Store().Put(fresh.Key, []byte("stored bytes\n")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if hit, _ := srv.Submit(spec); !hit.CacheHit {
		t.Fatalf("resubmission = %s (cache hit %v), want a cache hit", hit.ID, hit.CacheHit)
	}
}

// TestPersistenceAcrossRestart closes a server and reopens one on the
// same data dir: the resubmitted job must be a cache hit with identical
// bytes, served by a process that never computed it.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv1, err := New(Options{DataDir: dir, MCWorkers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	spec := sweepSpec(900, 256, 5)
	st1, data1, err := NewClient(hs1.URL).Run(ctx, spec, nil)
	hs1.Close()
	srv1.Close()
	if err != nil || st1.State != StateDone {
		t.Fatalf("first server run: %v (state %s)", err, st1.State)
	}

	srv2, err := New(Options{DataDir: dir, MCWorkers: 1})
	if err != nil {
		t.Fatalf("New (restart): %v", err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	defer srv2.Close()
	st2, data2, err := NewClient(hs2.URL).Run(ctx, spec, nil)
	if err != nil {
		t.Fatalf("second server run: %v", err)
	}
	if !st2.CacheHit {
		t.Fatal("restarted server did not serve from the persisted store")
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("persisted result bytes differ")
	}
}

// TestSubmitValidation exercises the 400 paths end to end.
func TestSubmitValidation(t *testing.T) {
	_, client := newTestServer(t, Options{})
	ctx := context.Background()
	bad := []JobSpec{
		{},
		{Type: "sweep"},
		{Type: "trace"},
		{Type: "sweep", Sweep: &SweepJob{Policy: "Pasive"}},
		{Type: "sweep", Sweep: &SweepJob{Policy: "Passive", D: 4}},
		{Type: "sweep", Sweep: &SweepJob{Policy: "Passive", P: 0.7}},
		{Type: "sweep", Sweep: &SweepJob{Policy: "Passive", Hardware: "Rigetti"}},
		{Type: "trace", Trace: &TraceJob{Policies: []string{"Passive"}, TraceText: "PATCH A\nMERGE A\n"}},
		{Type: "trace", Trace: &TraceJob{Policies: nil, TraceText: testTrace}},
		{Type: "trace", Trace: &TraceJob{Policies: []string{"Passive"}, Workload: "bursty"}},
	}
	for i, spec := range bad {
		if _, err := client.Submit(ctx, spec); err == nil {
			t.Errorf("spec %d: submission unexpectedly accepted", i)
		}
	}
	if _, err := client.Job(ctx, "j999999"); err == nil {
		t.Error("unknown job id unexpectedly found")
	}
	if _, err := client.Result(ctx, "deadbeef"); err == nil {
		t.Error("bogus result key unexpectedly found")
	}
}

// TestJobHistoryEviction bounds the registry: beyond JobHistory, the
// oldest terminal jobs are evicted while their results stay served
// from the store.
func TestJobHistoryEviction(t *testing.T) {
	srv, client := newTestServer(t, Options{MCWorkers: 1, JobHistory: 3})
	ctx := context.Background()

	spec := sweepSpec(650, 256, 21)
	st, _, err := client.Run(ctx, spec, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Each resubmission is a terminal cache-hit job; the registry must
	// stay at the cap while results keep flowing.
	var last JobStatus
	for i := 0; i < 10; i++ {
		if last, err = client.Submit(ctx, spec); err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		if !last.CacheHit {
			t.Fatalf("resubmit %d: expected cache hit", i)
		}
	}
	if got := len(srv.Jobs()); got != 3 {
		t.Fatalf("registry holds %d jobs, want the JobHistory cap of 3", got)
	}
	if _, ok := srv.Job(st.ID); ok {
		t.Fatalf("oldest job %s survived eviction", st.ID)
	}
	if _, ok := srv.Job(last.ID); !ok {
		t.Fatalf("newest job %s was evicted", last.ID)
	}
	if data, err := client.Result(ctx, last.Key); err != nil || len(data) == 0 {
		t.Fatalf("result unavailable after eviction: %v", err)
	}
}

// TestSpecEchoRoundTrips guards the normalized-spec contract: the echo
// returned in JobStatus.Spec must resolve to the same content key as
// the original submission — including scaled hardware, where only the
// scale factor (not the Cycle*Ns fields) captures the profile's
// latency scaling.
func TestSpecEchoRoundTrips(t *testing.T) {
	specs := []JobSpec{
		sweepSpec(1000, 512, 7),
		{Type: "sweep", Sweep: &SweepJob{Policy: "Hybrid", Hardware: "Google", ScaleNs: 1000, TauNs: 700, EpsNs: 400, Shots: 64}},
		{Type: "sweep", Sweep: &SweepJob{Policy: "Active", ScaleNs: 500, D: 5, P: 2e-3, Basis: "Z"}},
		traceSpec(256, 9),
		{Type: "trace", Trace: &TraceJob{Workload: "ensemble", Patches: 5, Merges: 9, Policies: []string{"Active"}, ScaleNs: -1, Shots: 64}},
		{Type: "trace", Trace: &TraceJob{TraceText: testTrace, Policies: []string{"Passive"}, ScaleNs: 2000, Seed: 4}},
	}
	for i, spec := range specs {
		r, err := spec.resolve()
		if err != nil {
			t.Fatalf("spec %d: resolve: %v", i, err)
		}
		echoKey, err := r.spec.ContentKey()
		if err != nil {
			t.Fatalf("spec %d: echo resolve: %v", i, err)
		}
		if echoKey != r.key {
			t.Errorf("spec %d: echoed spec resolves to %s, original to %s", i, echoKey, r.key)
		}
	}
}

// TestSubmitAfterClose verifies the shutdown path rejects new work.
func TestSubmitAfterClose(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Close()
	if _, err := srv.Submit(sweepSpec(1000, 64, 1)); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

// TestContentKeyCanonicalization: a trace with comments/whitespace and
// its canonical text share one content address, and the key predictor
// matches what the server uses.
func TestContentKeyCanonicalization(t *testing.T) {
	messy := "# a comment\nPATCH A 1000\nPATCH B 1105\n\nIDLE B 2\nMERGE A B\nIDLE A 1\nMERGE A B\n"
	a := JobSpec{Type: "trace", Trace: &TraceJob{TraceText: messy, Policies: []string{"Passive", "Hybrid"}, Shots: 256, Seed: 9}}
	b := traceSpec(256, 9)
	ka, err := a.ContentKey()
	if err != nil {
		t.Fatalf("ContentKey a: %v", err)
	}
	kb, err := b.ContentKey()
	if err != nil {
		t.Fatalf("ContentKey b: %v", err)
	}
	if ka != kb {
		t.Fatalf("equivalent traces got different keys:\n%s\n%s", ka, kb)
	}

	_, client := newTestServer(t, Options{MCWorkers: 1})
	st, err := client.Submit(context.Background(), a)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Key != ka {
		t.Fatalf("server key %s != local predictor %s", st.Key, ka)
	}
}

// TestContentKeyStability pins the content addresses of three
// non-adaptive jobs. Stored results are found by these keys, so they are
// a frozen contract: if this test fails, the change made every stored
// result unreachable — fix the code, do not re-pin the values (the only
// sanctioned exception is an intentional, documented schema migration
// that bumps resultSchemaVersion).
func TestContentKeyStability(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Type: "sweep", Sweep: &SweepJob{Policy: "Passive", TauNs: 500, Shots: 2048}},
			"9412ae36f6bf69d1f67a9b144aafe63ddecf0c4df90fbe76961580a0456053f2"},
		{JobSpec{Type: "campaign", Campaign: &CampaignJob{Policies: "Passive,Active", TausNs: "250,500", Shots: 20000}},
			"c589cc0ec0394858e5b05d7fd2db1b6462d871c3088904fb80cdffdf21e73ba1"},
		{JobSpec{Type: "trace", Trace: &TraceJob{Policies: []string{"Passive"}, Shots: 1024}},
			"4b5b583b1578c296c009788dda246296c0c0c8bff9620719c861ed1bb4b4a9b3"},
	} {
		got, err := tc.spec.ContentKey()
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Type, err)
		}
		if got != tc.want {
			t.Errorf("%s content key drifted:\n got %s\nwant %s", tc.spec.Type, got, tc.want)
		}
	}
}
