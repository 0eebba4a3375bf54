package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"latticesim/internal/obs"
)

// goldenMetricNames is the coordinator's full metric-family inventory.
// A rename here is an observability API break: dashboards and the CI
// smoke test key on these names, so changing one is a conscious,
// test-visible act.
var goldenMetricNames = []string{
	"latticesim_active_leases",
	"latticesim_attempts_total",
	"latticesim_build_cache_hits_total",
	"latticesim_build_cache_misses_total",
	"latticesim_campaign_batches_outstanding",
	"latticesim_campaigns_total",
	"latticesim_cancellations_total",
	"latticesim_integrity_checks_total",
	"latticesim_integrity_failures_total",
	"latticesim_job_shots_per_second",
	"latticesim_jobs",
	"latticesim_jobs_submitted_total",
	"latticesim_lease_expiries_total",
	"latticesim_lease_grants_total",
	"latticesim_lease_heartbeat_age_seconds",
	"latticesim_lease_renewals_total",
	"latticesim_queue_depth",
	"latticesim_queue_fresh",
	"latticesim_requeues_total",
	"latticesim_store_corruptions_total",
	"latticesim_store_get_seconds",
	"latticesim_store_gets_total",
	"latticesim_store_hits_total",
	"latticesim_store_put_bytes_total",
	"latticesim_store_puts_total",
	"latticesim_workers",
	"latticesim_shard_duration_seconds",
	"latticesim_predecoder_shots_total",
	"latticesim_predecoder_hits_total",
}

// TestMetricsGoldenNames scrapes a live coordinator and checks every
// family of the inventory is present, every family carries the
// latticesim_ prefix, and counters follow the _total convention.
func TestMetricsGoldenNames(t *testing.T) {
	srv, client := newTestServer(t, Options{MCWorkers: 1})
	ctx := context.Background()
	if _, _, err := client.Run(ctx, sweepSpec(1000, 64, 3), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}

	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, name := range goldenMetricNames {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("metric family %s missing from exposition", name)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 3 || !strings.HasPrefix(fields[2], "latticesim_") {
				t.Errorf("family without latticesim_ prefix: %s", line)
			}
			if fields[1] == "TYPE" && len(fields) == 4 && fields[3] == "counter" && !strings.HasSuffix(fields[2], "_total") {
				t.Errorf("counter without _total suffix: %s", fields[2])
			}
			continue
		}
		if !strings.HasPrefix(line, "latticesim_") {
			t.Errorf("series without latticesim_ prefix: %s", line)
		}
	}
}

// TestMetricsEndpoint checks GET /metrics on the coordinator's HTTP
// handler serves valid-looking Prometheus text, and that the derived
// /v1/stats snapshot agrees with the registry's counters.
func TestMetricsEndpoint(t *testing.T) {
	srv, client := newTestServer(t, Options{MCWorkers: 1})
	ctx := context.Background()
	if _, _, err := client.Run(ctx, sweepSpec(1500, 64, 9), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}

	resp, err := http.Get(client.BaseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if !strings.Contains(buf.String(), "latticesim_attempts_total 1\n") {
		t.Fatalf("/metrics missing attempts counter:\n%s", buf.String())
	}

	st := srv.Stats()
	if st.Attempts != 1 || st.Jobs != 1 || st.Done != 1 {
		t.Fatalf("stats = attempts %d jobs %d done %d, want 1/1/1", st.Attempts, st.Jobs, st.Done)
	}
}

// TestStatsExcludesBatchChildren pins the /v1/stats accounting audit:
// a campaign registers one submission (the parent), its batch children
// are reported in BatchChildren and the per-state counts — never
// inflating Jobs.
func TestStatsExcludesBatchChildren(t *testing.T) {
	srv, client := newTestServer(t, Options{Workers: 1, MCWorkers: 1})
	ctx := context.Background()
	st, err := client.SubmitCampaign(ctx, CampaignJob{
		Policies: "Passive,Active", TausNs: "500,1000",
		Shots: 64, Seed: 11, BatchPoints: 1,
	})
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	if !st.Terminal() {
		if st, err = client.Watch(ctx, st.ID, nil); err != nil {
			t.Fatalf("Watch: %v", err)
		}
	}
	if st.State != StateDone {
		t.Fatalf("campaign ended %s (%s), want done", st.State, st.Error)
	}

	stats := srv.Stats()
	if stats.Jobs != 1 {
		t.Fatalf("Jobs = %d, want 1 (campaign children must not count as submissions)", stats.Jobs)
	}
	if stats.BatchChildren != 4 {
		t.Fatalf("BatchChildren = %d, want 4", stats.BatchChildren)
	}
	if stats.Done != 5 {
		t.Fatalf("Done = %d, want 5 (parent + 4 children)", stats.Done)
	}
	if stats.Campaigns != 1 {
		t.Fatalf("Campaigns = %d, want 1", stats.Campaigns)
	}
}

// TestMismatchedCompletionCreditsFailure pins the worker-accounting
// audit: a completion whose bytes conflict with the stored result is
// an integrity failure charged to the reporting node — Failed credit,
// never Completed. (The credit must wait for the store write.)
func TestMismatchedCompletionCreditsFailure(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: -1, MCWorkers: 1})

	w, err := srv.RegisterWorker("node")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	spec := sweepSpec(1000, 64, 21)
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	grant, err := srv.LeaseWork(w.ID)
	if err != nil || grant == nil {
		t.Fatalf("lease = %v, %v; want a grant", grant, err)
	}

	// Plant the canonical bytes under the job's key while the worker
	// holds the lease, then have the worker report different bytes: the
	// store write conflicts, the job is flagged, and the node's record
	// shows a failure.
	data, err := ExecuteSpec(context.Background(), nil, spec, 1, nil)
	if err != nil {
		t.Fatalf("ExecuteSpec: %v", err)
	}
	if err := srv.Store().Put(grant.Key, data); err != nil {
		t.Fatalf("planting result: %v", err)
	}
	corrupt := append(bytes.Clone(data), []byte("tampered")...)
	if _, err := srv.UpdateLease(grant.LeaseID, LeaseUpdate{Event: "complete", Result: corrupt}); err != nil {
		t.Fatalf("UpdateLease: %v", err)
	}

	got, _ := srv.Job(st.ID)
	if got.State != StateIntegrityError {
		t.Fatalf("job state = %s, want %s", got.State, StateIntegrityError)
	}
	ws := srv.Workers()
	if len(ws) != 1 || ws[0].Completed != 0 || ws[0].Failed != 1 {
		t.Fatalf("worker record = %+v, want 0 completed / 1 failed", ws)
	}
	if stats := srv.Stats(); stats.IntegrityFailures != 1 {
		t.Fatalf("integrity failures = %d, want 1", stats.IntegrityFailures)
	}
}

// TestJobSpansAndTraceIDs drives a job to completion with a span sink
// attached and checks the NDJSON stream: a valid trace ID minted at
// submission, echoed in the job status and the response header, and
// job+attempt spans sharing it with balanced start/end events.
func TestJobSpansAndTraceIDs(t *testing.T) {
	var sink lockedBuffer
	srv, err := New(Options{MCWorkers: 1, Spans: obs.NewSpanWriter(&sink)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	st, err := srv.Submit(sweepSpec(1000, 64, 33))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !obs.ValidTraceID(st.TraceID) {
		t.Fatalf("submission minted invalid trace ID %q", st.TraceID)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if cur, ok := srv.Job(st.ID); ok && cur.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	text := sink.String()
	for _, want := range []string{
		`"name":"job","phase":"start"`,
		`"name":"job","phase":"end"`,
		`"name":"attempt","phase":"start"`,
		`"name":"attempt","phase":"end"`,
		`"trace":"` + st.TraceID + `"`,
		`"span":"` + st.ID + `/a1"`,
		`"outcome":"done"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("span stream missing %s:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.Contains(line, `"trace":"`+st.TraceID+`"`) {
			t.Errorf("span event without the job's trace ID: %s", line)
		}
	}
}

// TestAttemptSpansEndOnce pins the span contract of DESIGN.md §16 on
// the transitions that can end an attempt out of the ordinary: each
// scenario leases one unit to a remote node, and the attempt span must
// end exactly once, with the outcome of the transition that ended it.
func TestAttemptSpansEndOnce(t *testing.T) {
	// lease starts a coordinator-only server with a span sink, submits
	// spec and leases its first unit to a registered node.
	lease := func(t *testing.T, opts Options, spec JobSpec) (*Server, *lockedBuffer, *LeaseGrant) {
		t.Helper()
		sink := &lockedBuffer{}
		opts.Workers, opts.MCWorkers, opts.Spans = -1, 1, obs.NewSpanWriter(sink)
		srv, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(srv.Close)
		w, err := srv.RegisterWorker("node-a")
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		if _, err := srv.Submit(spec); err != nil {
			t.Fatalf("submit: %v", err)
		}
		g, err := srv.LeaseWork(w.ID)
		if err != nil || g == nil {
			t.Fatalf("lease = %v, %v; want a grant", g, err)
		}
		return srv, sink, g
	}
	result := func(t *testing.T, g *LeaseGrant) []byte {
		t.Helper()
		data, err := ExecuteSpec(context.Background(), nil, g.Spec, 1, nil)
		if err != nil {
			t.Fatalf("ExecuteSpec: %v", err)
		}
		return data
	}
	ends := func(t *testing.T, sink *lockedBuffer, jobID string, att int, want ...string) {
		t.Helper()
		span := attemptSpanID(jobID, att)
		var got []string
		for _, ev := range spanEvents(t, sink.String()) {
			if ev.Name == "attempt" && ev.Span == span && ev.Phase == "end" {
				got = append(got, ev.Outcome)
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("attempt span %s ended %q, want %q", span, got, want)
		}
	}

	t.Run("completion after lease expiry", func(t *testing.T) {
		srv, sink, g := lease(t, Options{Lease: 100 * time.Millisecond}, sweepSpec(1000, 64, 51))
		deadline := time.Now().Add(5 * time.Second)
		for st, _ := srv.Job(g.JobID); st.State != StateQueued; st, _ = srv.Job(g.JobID) {
			if time.Now().After(deadline) {
				t.Fatalf("lease never expired: job %s", st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// Not yet re-granted, so the late completion is accepted.
		if ack, err := srv.UpdateLease(g.LeaseID, LeaseUpdate{Event: "complete", Result: result(t, g)}); err != nil || !ack.Valid {
			t.Fatalf("late completion ack = %+v, %v; want valid", ack, err)
		}
		if st, _ := srv.Job(g.JobID); st.State != StateDone {
			t.Fatalf("job %s after the late completion, want done", st.State)
		}
		ends(t, sink, g.JobID, 1, "lease_expired")
	})

	t.Run("conflicting completion", func(t *testing.T) {
		srv, sink, g := lease(t, Options{}, sweepSpec(1000, 64, 52))
		data := result(t, g)
		if err := srv.Store().Put(g.Key, data); err != nil {
			t.Fatalf("planting result: %v", err)
		}
		corrupt := append(bytes.Clone(data), "tampered"...)
		if _, err := srv.UpdateLease(g.LeaseID, LeaseUpdate{Event: "complete", Result: corrupt}); err != nil {
			t.Fatalf("UpdateLease: %v", err)
		}
		if st, _ := srv.Job(g.JobID); st.State != StateIntegrityError {
			t.Fatalf("job %s, want %s", st.State, StateIntegrityError)
		}
		ends(t, sink, g.JobID, 1, "integrity_error")
	})

	t.Run("close with a remote lease", func(t *testing.T) {
		srv, sink, g := lease(t, Options{}, sweepSpec(1000, 64, 53))
		srv.Close()
		if st, _ := srv.Job(g.JobID); st.State != StateFailed || st.StopReason != StopReasonShutdown {
			t.Fatalf("job %s/%s after Close, want failed/shutdown", st.State, st.StopReason)
		}
		ends(t, sink, g.JobID, 1, "shutdown")
	})

	t.Run("silent campaign node", func(t *testing.T) {
		// a holds the campaign's one batch and goes silent. An idle node
		// gets nothing while a's lease is live, and the batch as a fresh
		// attempt once the watchdog has expired it.
		const ttl = 200 * time.Millisecond
		start := time.Now()
		srv, sink, g := lease(t, Options{Lease: ttl},
			JobSpec{Type: "campaign", Campaign: &CampaignJob{Policies: "Passive", TausNs: "1000", Shots: 64, Seed: 54}})
		b, err := srv.RegisterWorker("node-b")
		if err != nil {
			t.Fatalf("register b: %v", err)
		}
		var retry *LeaseGrant
		deadline := time.Now().Add(5 * time.Second)
		for retry == nil {
			if time.Now().After(deadline) {
				t.Fatal("the silent node's batch never came back")
			}
			if retry, err = srv.LeaseWork(b.ID); err != nil {
				t.Fatalf("lease to b: %v", err)
			}
			if retry != nil && time.Since(start) < ttl {
				t.Fatalf("b got %+v %v after a's grant, while a's %v lease was live", retry, time.Since(start), ttl)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if retry.JobID != g.JobID || retry.Attempt != 2 {
			t.Fatalf("b's grant = %+v, want %s as attempt 2", retry, g.JobID)
		}
		if ack, err := srv.UpdateLease(retry.LeaseID, LeaseUpdate{Event: "complete", Result: result(t, retry)}); err != nil || !ack.Valid {
			t.Fatalf("b's completion ack = %+v, %v; want valid", ack, err)
		}
		ends(t, sink, g.JobID, 1, "lease_expired")
		ends(t, sink, g.JobID, 2, "done")
	})
}

// spanEvents decodes an NDJSON span stream.
func spanEvents(t *testing.T, text string) []obs.SpanEvent {
	t.Helper()
	var out []obs.SpanEvent
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		var ev obs.SpanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestSubmitTracePropagation checks a client-supplied trace ID is
// adopted instead of minting a fresh one, and invalid ones are
// replaced.
func TestSubmitTracePropagation(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: -1})
	want := obs.NewTraceID()
	st, err := srv.SubmitTraced(sweepSpec(900, 64, 5), want)
	if err != nil {
		t.Fatalf("SubmitTraced: %v", err)
	}
	if st.TraceID != want {
		t.Fatalf("trace ID = %q, want adopted %q", st.TraceID, want)
	}
	st2, err := srv.SubmitTraced(sweepSpec(901, 64, 5), "not-a-trace-id")
	if err != nil {
		t.Fatalf("SubmitTraced: %v", err)
	}
	if st2.TraceID == "not-a-trace-id" || !obs.ValidTraceID(st2.TraceID) {
		t.Fatalf("invalid inbound trace ID propagated: %q", st2.TraceID)
	}
}

// lockedBuffer is a concurrency-safe bytes.Buffer for span/log sinks
// written from server goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
