package worker

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"latticesim/internal/obs"
	"latticesim/internal/service"
	"latticesim/internal/sweep"
)

// The test campaign: 4 grid points (2 policies × 2 slacks) in batches
// of 1, small enough to run under -race in seconds but wide enough
// that three nodes genuinely share (and steal) work.
const (
	tcPolicies = "Passive,Active"
	tcTaus     = "500,1000"
	tcShots    = 96
	tcSeed     = 11
)

func testCampaign() service.CampaignJob {
	return service.CampaignJob{
		Policies: tcPolicies, TausNs: tcTaus,
		Shots: tcShots, Seed: tcSeed, BatchPoints: 1,
	}
}

// expectedAggregate computes the ground truth the distributed runs
// must reproduce byte for byte: the batch layer's canonical JSONL for
// the same grid, shots and seed — what `latticesim sweep -json` emits.
func expectedAggregate(t *testing.T) []byte {
	t.Helper()
	grid, err := sweep.ParseGridSpec(sweep.GridSpec{Policies: tcPolicies, TausNs: tcTaus})
	if err != nil {
		t.Fatalf("ParseGridSpec: %v", err)
	}
	recs, err := sweep.Collect(grid, sweep.Config{Shots: tcShots, Seed: tcSeed}, nil)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := rec.CanonicalJSON()
		if err != nil {
			t.Fatalf("CanonicalJSON: %v", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// fleetScenario shapes one campaign run: local is the coordinator's
// in-process node count, nodes the remote node count, and kill makes
// the first remote node die mid-unit while holding a lease.
type fleetScenario struct {
	name  string
	local int
	nodes int
	kill  bool
}

// runCampaignScenario runs the test campaign under one fleet shape and
// returns the aggregate bytes, asserting completion, clean integrity
// counters, that only the remote nodes are registered, and lease
// attribution: every lease the coordinator grants goes to
// service.WorkerLocal or a registered node, and in-process nodes take
// leases exactly when the fleet has them. Attribution is read from the
// lease spans, because a batch's final Worker is whichever attempt won
// it, and a remote node may steal an in-process node's straggler. After
// the nodes stop and the server closes, every attempt span must have
// exactly one start and one end.
func runCampaignScenario(t *testing.T, sc fleetScenario) []byte {
	t.Helper()
	var spans lockedBuffer
	opts := service.Options{Workers: -1, MCWorkers: 1, Lease: 250 * time.Millisecond,
		Spans: obs.NewSpanWriter(&spans)}
	if sc.local > 0 {
		opts.Workers = sc.local
	}
	srv, err := service.New(opts)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	cache := sweep.NewBuildCache()
	for i := 0; i < sc.nodes; i++ {
		nodeCtx, nodeCancel := context.WithCancel(ctx)
		defer nodeCancel()
		wopts := Options{
			Coordinator: hs.URL, Name: fmt.Sprintf("node-%d", i),
			MCWorkers: 1, Poll: 10 * time.Millisecond, Cache: cache,
		}
		if sc.kill && i == 0 {
			// The doomed node: on its first lease it signals the test,
			// then hangs without heartbeating until its context is
			// canceled — exactly what a killed process looks like to the
			// coordinator, which must re-lease (or steal) the unit.
			leased := make(chan struct{})
			var once sync.Once
			wopts.BeforeExecute = func(hctx context.Context, g *service.LeaseGrant) error {
				once.Do(func() { close(leased) })
				<-hctx.Done()
				return hctx.Err()
			}
			go func() {
				select {
				case <-leased:
					nodeCancel()
				case <-ctx.Done():
				}
			}()
		}
		w, err := New(wopts)
		if err != nil {
			t.Fatalf("worker.New: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(nodeCtx)
		}()
	}

	client := service.NewClient(hs.URL)
	st, err := client.SubmitCampaign(ctx, testCampaign())
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	if !st.Terminal() {
		if st, err = client.Watch(ctx, st.ID, nil); err != nil {
			t.Fatalf("Watch: %v", err)
		}
	}
	if st.State != service.StateDone {
		t.Fatalf("campaign ended %s (%s), want done", st.State, st.Error)
	}
	if st.Progress.Done != 4 || st.Progress.Total != 4 || st.Progress.Unit != "points" {
		t.Fatalf("campaign progress = %+v, want 4/4 points", st.Progress)
	}

	cs, err := client.Campaign(ctx, st.ID)
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if len(cs.Batches) != 4 {
		t.Fatalf("campaign has %d batches, want 4", len(cs.Batches))
	}
	nodes, err := client.Workers(ctx)
	if err != nil {
		t.Fatalf("Workers: %v", err)
	}
	if len(nodes) != sc.nodes {
		t.Fatalf("/v1/workers lists %d nodes, want the %d remote ones", len(nodes), sc.nodes)
	}
	executors := map[string]bool{service.WorkerLocal: sc.local > 0}
	for _, n := range nodes {
		executors[n.ID] = true
	}
	for _, b := range cs.Batches {
		if b.State != service.StateDone {
			t.Fatalf("batch %s ended %s (%s), want done", b.ID, b.State, b.Error)
		}
		if !executors[b.Worker] {
			t.Fatalf("batch %s attributed to %q, not an executor of this fleet", b.ID, b.Worker)
		}
	}
	localLeases := 0
	for _, ev := range parseSpans(t, spans.String()) {
		if ev.Name != "lease" || ev.Phase != "start" {
			continue
		}
		if !executors[ev.Worker] {
			t.Fatalf("lease %s granted to %q, not an executor of this fleet", ev.Span, ev.Worker)
		}
		if ev.Worker == service.WorkerLocal {
			localLeases++
		}
	}
	if (sc.local > 0) != (localLeases > 0) {
		t.Fatalf("%d leases granted to %q with %d in-process nodes", localLeases, service.WorkerLocal, sc.local)
	}

	data, err := client.Result(ctx, st.Key)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.IntegrityFailures != 0 {
		t.Fatalf("integrity_failures = %d, want 0", stats.IntegrityFailures)
	}

	cancel()
	wg.Wait()
	// Every attempt span starts once and ends once — a stolen
	// straggler's included — once Close has ended what is still live.
	srv.Close()
	phases := map[string]string{}
	for _, ev := range parseSpans(t, spans.String()) {
		if ev.Name == "attempt" {
			phases[ev.Span] += " " + ev.Phase
		}
	}
	for span, got := range phases {
		if got != " start end" {
			t.Fatalf("attempt span %s has events%s, want one start and one end", span, got)
		}
	}
	return data
}

// TestCampaignFleetDeterminism is the fabric's core guarantee: the
// same campaign aggregated by the coordinator's in-process node, by a
// fleet of three remote nodes, by a fleet that loses a node mid-run,
// and by in-process and remote nodes draining one queue together
// produces byte-identical results — all equal to what the batch layer
// (`latticesim sweep -json`) computes directly.
func TestCampaignFleetDeterminism(t *testing.T) {
	want := expectedAggregate(t)
	for _, sc := range []fleetScenario{
		{name: "in-process node", local: 1},
		{name: "3 remote nodes", nodes: 3},
		{name: "3 remote nodes, one killed", nodes: 3, kill: true},
		{name: "1 in-process + 2 remote nodes", local: 1, nodes: 2},
	} {
		t.Run(sc.name, func(t *testing.T) {
			if got := runCampaignScenario(t, sc); !bytes.Equal(got, want) {
				t.Fatalf("campaign differs from direct sweep:\ngot:  %q\nwant: %q", got, want)
			}
		})
	}
}

// TestRemoteFailureSemantics pins a remote node's failure reports to
// the in-process nodes' semantics: a unit past its timeout — the spec's
// timeout_ms or, absent one, the coordinator's JobTimeout carried in
// the grant — fails its job with stop reason "timeout" after exactly
// one attempt, and a panicking BeforeExecute is recovered into a
// "panic" failure that is retried while the node lives on.
func TestRemoteFailureSemantics(t *testing.T) {
	wedge := func(ctx context.Context, _ *service.LeaseGrant) error {
		<-ctx.Done()
		return ctx.Err()
	}
	panicFirst := func(_ context.Context, g *service.LeaseGrant) error {
		if g.Attempt == 1 {
			panic("injected hook bug")
		}
		return nil
	}
	spec := func(timeoutMs int64) service.JobSpec {
		return service.JobSpec{Type: "sweep", TimeoutMs: timeoutMs, Sweep: &service.SweepJob{
			Policy: "Passive", TauNs: 800, Shots: 64, Seed: 3,
		}}
	}
	timedOutOnce := func(t *testing.T, st service.JobStatus) {
		if st.State != service.StateFailed || st.StopReason != service.StopReasonTimeout || st.Attempt != 1 {
			t.Fatalf("job = %s/%s after %d attempts, want failed/timeout after 1", st.State, st.StopReason, st.Attempt)
		}
	}
	for _, tc := range []struct {
		name       string
		jobTimeout time.Duration
		spec       service.JobSpec
		hook       func(context.Context, *service.LeaseGrant) error
		check      func(t *testing.T, st service.JobStatus)
	}{
		{"spec timeout_ms", 0, spec(50), wedge, timedOutOnce},
		{"coordinator JobTimeout", 50 * time.Millisecond, spec(0), wedge, timedOutOnce},
		{"panicking hook", 0, spec(0), panicFirst, func(t *testing.T, st service.JobStatus) {
			if st.State != service.StateDone || st.Attempt != 2 {
				t.Fatalf("job = %s after %d attempts, want done on the retry", st.State, st.Attempt)
			}
			if len(st.Failures) != 1 || st.Failures[0].Reason != "panic" ||
				!strings.Contains(st.Failures[0].Error, "injected hook bug") {
				t.Fatalf("failures = %+v, want one recorded panic", st.Failures)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := service.New(service.Options{Workers: -1, MCWorkers: 1, JobTimeout: tc.jobTimeout})
			if err != nil {
				t.Fatalf("service.New: %v", err)
			}
			hs := httptest.NewServer(srv.Handler())
			defer func() {
				hs.Close()
				srv.Close()
			}()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			w, err := New(Options{
				Coordinator: hs.URL, MCWorkers: 1, Poll: 10 * time.Millisecond,
				BeforeExecute: tc.hook,
			})
			if err != nil {
				t.Fatalf("worker.New: %v", err)
			}
			wctx, wcancel := context.WithCancel(ctx)
			done := make(chan error, 1)
			go func() { done <- w.Run(wctx) }()

			client := service.NewClient(hs.URL)
			st, err := client.Submit(ctx, tc.spec)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if st, err = client.Watch(ctx, st.ID, nil); err != nil {
				t.Fatalf("Watch: %v", err)
			}
			tc.check(t, st)
			// The node survived: it is still pulling work when told to stop.
			wcancel()
			if err := <-done; err != context.Canceled {
				t.Fatalf("node Run ended with %v, want context.Canceled", err)
			}
		})
	}
}

// TestWorkerStoreFastPath checks a node short-circuits a leased unit
// whose result is already stored (the losing side of a steal race)
// instead of recomputing it.
func TestWorkerStoreFastPath(t *testing.T) {
	srv, err := service.New(service.Options{Workers: -1, MCWorkers: 1})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := service.JobSpec{Type: "sweep", Sweep: &service.SweepJob{
		Policy: "Passive", TauNs: 1000, Shots: 64, Seed: 5,
	}}
	// Precompute the result and plant it in the store under the job's
	// key, then submit: the job coalesces before the store check only
	// for in-flight keys, so this submission still queues... unless the
	// store already has it. Plant *after* submission to exercise the
	// worker-side fast path rather than the coordinator's.
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	data, err := service.ExecuteSpec(ctx, nil, spec, 1, nil)
	if err != nil {
		t.Fatalf("ExecuteSpec: %v", err)
	}
	if err := srv.Store().Put(st.Key, data); err != nil {
		t.Fatalf("Put: %v", err)
	}

	executed := false
	w, err := New(Options{
		Coordinator: hs.URL, MCWorkers: 1, Poll: 10 * time.Millisecond,
		Logf: t.Logf,
		BeforeExecute: func(context.Context, *service.LeaseGrant) error {
			executed = true
			return nil
		},
	})
	if err != nil {
		t.Fatalf("worker.New: %v", err)
	}
	// BeforeExecute runs before the fast path, so it fires either way;
	// what must not happen is a store mismatch or a recompute changing
	// the outcome. Watch the job to completion and check the counters.
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(wctx)
	}()

	client := service.NewClient(hs.URL)
	final, err := client.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	// The job reaches done on the coordinator before the worker's report
	// round-trip finishes; wait for the worker's own counter before
	// shutting it down so the stats assertion is deterministic.
	for deadline := time.Now().Add(10 * time.Second); w.Stats().Completed == 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	wcancel()
	<-done
	if final.State != service.StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	got, err := client.Result(ctx, final.Key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("result differs after fast path (err %v)", err)
	}
	if !executed {
		t.Fatal("BeforeExecute hook never ran — worker never leased the unit")
	}
	ws := w.Stats()
	if ws.Completed != 1 || ws.Failed != 0 {
		t.Fatalf("worker stats = %+v, want exactly one completion", ws)
	}
	stats, _ := client.Stats(ctx)
	if stats.IntegrityFailures != 0 {
		t.Fatalf("integrity_failures = %d, want 0", stats.IntegrityFailures)
	}
}
