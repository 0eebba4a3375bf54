package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runToTerminal submits a spec and waits (bounded) for its terminal
// status.
func runToTerminal(t *testing.T, srv *Server, spec JobSpec, timeout time.Duration) JobStatus {
	t.Helper()
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Terminal() {
		return st
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	fin, ok, err := srv.Watch(ctx, st.ID, nil)
	if !ok || err != nil {
		t.Fatalf("Watch(%s): ok=%v err=%v (state %s)", st.ID, ok, err, fin.State)
	}
	return fin
}

// cleanResult computes a spec's fault-free result bytes on a pristine
// server.
func cleanResult(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	srv, err := New(Options{MCWorkers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	st := runToTerminal(t, srv, spec, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("clean run finished %s: %s", st.State, st.Error)
	}
	data, ok, err := srv.Store().Get(st.Key)
	if err != nil || !ok {
		t.Fatalf("clean result missing: ok=%v err=%v", ok, err)
	}
	return data
}

// TestPanicInWorkerRetries injects a panic into the first attempt: the
// worker must survive, the job must retry and finish with the panic on
// record, and the retried bytes must match a fault-free execution.
func TestPanicInWorkerRetries(t *testing.T) {
	spec := sweepSpec(800, 256, 13)
	want := cleanResult(t, spec)

	srv, err := New(Options{MCWorkers: 1, Hooks: &Hooks{
		BeforeExec: func(ctx context.Context, jobID string, attempt int) {
			if attempt == 1 {
				panic("injected decoder bug")
			}
		},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	st := runToTerminal(t, srv, spec, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	if st.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", st.Attempt)
	}
	if len(st.Failures) != 1 || st.Failures[0].Reason != "panic" ||
		!strings.Contains(st.Failures[0].Error, "injected decoder bug") {
		t.Fatalf("failures = %+v, want one recorded panic", st.Failures)
	}
	data, ok, _ := srv.Store().Get(st.Key)
	if !ok || !bytes.Equal(data, want) {
		t.Fatal("retried result differs from fault-free execution")
	}
	if s := srv.Stats(); s.Requeues != 1 || s.Attempts != 2 {
		t.Fatalf("stats requeues/attempts = %d/%d, want 1/2", s.Requeues, s.Attempts)
	}
	// The server is still healthy: the next job sails through.
	if st := runToTerminal(t, srv, sweepSpec(900, 128, 2), 30*time.Second); st.State != StateDone {
		t.Fatalf("follow-up job finished %s: %s", st.State, st.Error)
	}
}

// TestLeaseExpiryRequeuesDeterministically wedges the first attempt
// (blocking until its context is canceled): the watchdog must expire
// the lease, requeue, and the rerun must produce bytes identical to a
// fault-free execution — the "killed worker" recovery contract.
func TestLeaseExpiryRequeuesDeterministically(t *testing.T) {
	// The lease must comfortably exceed one shard's runtime (heartbeats
	// fire at shard granularity), while the wedged attempt holds its
	// worker for exactly one lease before the watchdog reclaims it.
	spec := sweepSpec(850, 128, 17)
	want := cleanResult(t, spec)

	srv, err := New(Options{MCWorkers: 1, Lease: 400 * time.Millisecond, Hooks: &Hooks{
		BeforeExec: func(ctx context.Context, jobID string, attempt int) {
			if attempt == 1 {
				<-ctx.Done() // wedged until the watchdog reclaims us
			}
		},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	st := runToTerminal(t, srv, spec, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	if len(st.Failures) == 0 || st.Failures[0].Reason != "lease_expired" {
		t.Fatalf("failures = %+v, want a recorded lease expiry", st.Failures)
	}
	data, ok, _ := srv.Store().Get(st.Key)
	if !ok || !bytes.Equal(data, want) {
		t.Fatal("post-expiry rerun differs from fault-free execution")
	}
	if s := srv.Stats(); s.Requeues == 0 {
		t.Fatal("stats recorded no requeue")
	}
}

// TestMaxAttemptsExhausted: a job that panics every time fails
// terminally with the full attempt history and stop reason.
func TestMaxAttemptsExhausted(t *testing.T) {
	srv, err := New(Options{MCWorkers: 1, MaxAttempts: 2, Hooks: &Hooks{
		BeforeExec: func(ctx context.Context, jobID string, attempt int) {
			panic("always broken")
		},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	st := runToTerminal(t, srv, sweepSpec(700, 128, 3), 30*time.Second)
	if st.State != StateFailed || st.StopReason != StopReasonMaxAttempts {
		t.Fatalf("state/stop = %s/%s, want failed/max_attempts", st.State, st.StopReason)
	}
	if len(st.Failures) != 2 || st.Attempt != 2 {
		t.Fatalf("attempt=%d failures=%+v, want 2 recorded attempts", st.Attempt, st.Failures)
	}
}

// TestCancelQueuedJob cancels a job before any worker reaches it: it
// must go terminal without ever executing, free its queue slot for the
// depth bound, and release the dedup slot so a resubmission starts
// fresh.
func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	var started atomic.Int32
	srv, err := New(Options{Workers: 1, MCWorkers: 1, QueueDepth: 2, Hooks: &Hooks{
		BeforeExec: func(ctx context.Context, jobID string, attempt int) {
			started.Add(1)
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	defer close(gate)

	blocker, err := srv.Submit(sweepSpec(600, 128, 1))
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	// Wait until the blocker occupies the only worker.
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	victimSpec := sweepSpec(650, 128, 2)
	victim, err := srv.Submit(victimSpec)
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	if victim.State != StateQueued {
		t.Fatalf("victim state = %s, want queued", victim.State)
	}

	st, ok := srv.Cancel(victim.ID)
	if !ok || st.State != StateCanceled || st.StopReason != StopReasonCanceled {
		t.Fatalf("Cancel = %+v ok=%v, want canceled", st, ok)
	}
	if st.Attempt != 0 {
		t.Fatalf("canceled queued job ran %d attempts", st.Attempt)
	}
	// The queue slot freed: with depth 2 and one slot eaten by... the
	// running blocker is not queued, so two fresh submissions must fit.
	if _, err := srv.Submit(sweepSpec(660, 128, 3)); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
	// The dedup slot freed: resubmitting the canceled spec starts a new
	// job rather than coalescing onto the canceled one.
	again, err := srv.Submit(victimSpec)
	if err != nil {
		t.Fatalf("resubmit canceled spec: %v", err)
	}
	if again.ID == victim.ID {
		t.Fatal("resubmission coalesced onto the canceled job")
	}
	if s := srv.Stats(); s.Cancellations != 1 {
		t.Fatalf("cancellations = %d, want 1", s.Cancellations)
	}
	_ = blocker
}

// TestCancelRunningJob cancels mid-execution over the HTTP API: the
// job must go terminal promptly with the distinct stop reason, and the
// worker must come free for the next job.
func TestCancelRunningJob(t *testing.T) {
	var started atomic.Int32
	srv, err := New(Options{Workers: 1, MCWorkers: 1, Hooks: &Hooks{
		BeforeExec: func(ctx context.Context, jobID string, attempt int) {
			if jobID == "j000001" {
				started.Add(1)
				<-ctx.Done() // simulate a long execution that honors ctx
			}
		},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := NewClient(hs.URL)
	ctx := context.Background()

	st, err := client.Submit(ctx, sweepSpec(620, 128, 4))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	canceled, err := client.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if canceled.State != StateCanceled || canceled.StopReason != StopReasonCanceled {
		t.Fatalf("canceled status = %s/%s, want canceled/canceled", canceled.State, canceled.StopReason)
	}
	// Cancel is idempotent, over HTTP too.
	if again, err := client.Cancel(ctx, st.ID); err != nil || again.State != StateCanceled {
		t.Fatalf("second Cancel = %+v, %v", again, err)
	}
	if _, err := client.Cancel(ctx, "j999999"); err == nil {
		t.Fatal("canceling an unknown job did not 404")
	}
	// Worker freed: the next job completes.
	if fin := runToTerminal(t, srv, sweepSpec(640, 128, 5), 30*time.Second); fin.State != StateDone {
		t.Fatalf("post-cancel job finished %s: %s", fin.State, fin.Error)
	}
}

// TestJobTimeout covers both timeout sources: the per-job TimeoutMs and
// the server default, each ending a wedged job as failed/"timeout".
func TestJobTimeout(t *testing.T) {
	wedge := &Hooks{BeforeExec: func(ctx context.Context, jobID string, attempt int) {
		<-ctx.Done()
	}}

	srv, err := New(Options{MCWorkers: 1, Hooks: wedge})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	spec := sweepSpec(710, 128, 6)
	spec.TimeoutMs = 50
	st := runToTerminal(t, srv, spec, 30*time.Second)
	if st.State != StateFailed || st.StopReason != StopReasonTimeout {
		t.Fatalf("per-job timeout: state/stop = %s/%s, want failed/timeout", st.State, st.StopReason)
	}

	srv2, err := New(Options{MCWorkers: 1, JobTimeout: 50 * time.Millisecond, Hooks: wedge})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv2.Close()
	st2 := runToTerminal(t, srv2, sweepSpec(720, 128, 7), 30*time.Second)
	if st2.State != StateFailed || st2.StopReason != StopReasonTimeout {
		t.Fatalf("default timeout: state/stop = %s/%s, want failed/timeout", st2.State, st2.StopReason)
	}
	// The timeout excludes itself from the content address: the same
	// coordinates without a timeout are a distinct job yet share the key.
	k1, err := spec.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	bare := sweepSpec(710, 128, 6)
	k2, err := bare.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("timeout_ms leaked into the content address")
	}
}

// dropStreamWriter lets a few bytes of the first response chunk out,
// then severs the connection — a proxy timeout or network partition
// mid-watch-stream.
type dropStreamWriter struct {
	http.ResponseWriter
}

func (d *dropStreamWriter) Write(p []byte) (int, error) {
	if len(p) > 3 {
		p = p[:3]
	}
	d.ResponseWriter.Write(p)
	d.Flush()
	panic(http.ErrAbortHandler)
}

func (d *dropStreamWriter) Flush() {
	if f, ok := d.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestWatchReconnect drops the first watch stream mid-line: a client
// with a retry policy must reconnect and follow the job to its terminal
// state, while a server-reported 404 stays final (no reconnect loop).
func TestWatchReconnect(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	srv, err := New(Options{MCWorkers: 1, Hooks: &Hooks{
		BeforeExec: func(ctx context.Context, jobID string, attempt int) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	inner := srv.Handler()
	var watchCalls atomic.Int32
	outer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("watch") != "" {
			if watchCalls.Add(1) == 1 {
				inner.ServeHTTP(&dropStreamWriter{ResponseWriter: w}, r)
				return
			}
			// The reconnect arrived; let the job finish so the second
			// stream reaches a terminal snapshot.
			gateOnce.Do(func() { close(gate) })
		}
		inner.ServeHTTP(w, r)
	})
	hs := httptest.NewServer(outer)
	defer hs.Close()

	client := NewClient(hs.URL)
	client.Retry = &RetryPolicy{MaxRetries: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := client.Submit(ctx, sweepSpec(740, 128, 9))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin, err := client.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("watched job finished %s: %s", fin.State, fin.Error)
	}
	if watchCalls.Load() < 2 {
		t.Fatalf("watch reconnected %d times, want the dropped stream plus a retry", watchCalls.Load())
	}

	// A 404 is permanent: the watch must fail fast, not retry blind.
	before := watchCalls.Load()
	if _, err := client.Watch(ctx, "j999999", nil); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("watch of unknown job = %v, want a 404 error", err)
	}
	if watchCalls.Load() != before+1 {
		t.Fatalf("permanent 404 was retried (%d watch calls)", watchCalls.Load()-before)
	}
}

// TestClientRetriesQueueFull: a 503 with Retry-After is retried and the
// submission eventually lands, without double-running anything.
func TestClientRetriesQueueFull(t *testing.T) {
	srv, err := New(Options{MCWorkers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	inner := srv.Handler()
	var rejects atomic.Int32
	outer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && rejects.Add(1) <= 2 {
			writeError(w, http.StatusServiceUnavailable, CodeQueueFull, time.Second, "%v", ErrQueueFull)
			return
		}
		inner.ServeHTTP(w, r)
	})
	hs := httptest.NewServer(outer)
	defer hs.Close()

	client := NewClient(hs.URL)
	client.Retry = &RetryPolicy{MaxRetries: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	st, data, err := client.Run(context.Background(), sweepSpec(730, 128, 8), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.State != StateDone || len(data) == 0 {
		t.Fatalf("state=%s len=%d, want a completed run", st.State, len(data))
	}
	if rejects.Load() < 3 {
		t.Fatalf("handler saw %d submissions, want the two rejects plus success", rejects.Load())
	}

	// Without a retry policy the same 503 is surfaced immediately.
	rejects.Store(0)
	bare := NewClient(hs.URL)
	if _, err := bare.Submit(context.Background(), sweepSpec(730, 128, 8)); err == nil {
		t.Fatal("retry-less client swallowed the 503")
	}
}

// TestCloseFailsJobRequeuedDuringShutdown: an in-process attempt that
// fails while Close waits for the nodes to stop is requeued without a
// queue entry, and Close must still fail that job with stop reason
// "shutdown" rather than leave it queued forever.
func TestCloseFailsJobRequeuedDuringShutdown(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	srv, err := New(Options{Workers: 1, MCWorkers: 1, Hooks: &Hooks{
		BeforeExec: func(_ context.Context, _ string, attempt int) {
			if attempt == 1 {
				close(started)
				<-release
				panic("injected failure during shutdown")
			}
		},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := srv.Submit(sweepSpec(700, 64, 9))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	go func() { // fail the attempt only once Close has begun
		for {
			srv.mu.Lock()
			closed := srv.closed
			srv.mu.Unlock()
			if closed {
				close(release)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	srv.Close()
	got, _ := srv.Job(st.ID)
	if got.State != StateFailed || got.StopReason != StopReasonShutdown || len(got.Failures) != 1 {
		t.Fatalf("job %s/%s with %d failures after Close, want failed/shutdown after one failure",
			got.State, got.StopReason, len(got.Failures))
	}
}
