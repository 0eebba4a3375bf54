package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"latticesim/internal/obs"
	"latticesim/internal/service"
)

// lockedBuffer is a concurrency-safe sink for span NDJSON written from
// coordinator and worker goroutines.
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

// TestTracePropagationAcrossFleet is the distributed-tracing
// acceptance test: a campaign submitted to a coordinator and executed
// by a remote node must carry ONE trace ID end to end — the
// coordinator's campaign/job/attempt/lease spans and the node's unit
// spans all stamp it, and the node learns it only from the lease grant
// (and its X-Latticesim-Trace response header).
func TestTracePropagationAcrossFleet(t *testing.T) {
	var coordSink, nodeSink lockedBuffer
	srv, err := service.New(service.Options{
		Workers: -1, MCWorkers: 1,
		Spans: obs.NewSpanWriter(&coordSink),
	})
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

	// Capture the trace header of one lease grant straight off the wire.
	var hdrMu sync.Mutex
	leaseHeaders := map[string]bool{}
	w, err := New(Options{
		Coordinator: hs.URL, Name: "traced-node",
		MCWorkers: 1, Poll: 10 * time.Millisecond,
		Metrics: obs.NewRegistry(),
		Spans:   obs.NewSpanWriter(&nodeSink),
		BeforeExecute: func(_ context.Context, g *service.LeaseGrant) error {
			hdrMu.Lock()
			leaseHeaders[g.TraceID] = true
			hdrMu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatalf("worker.New: %v", err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(wctx)
	}()

	client := service.NewClient(hs.URL)
	st, err := client.SubmitCampaign(ctx, service.CampaignJob{
		Policies: "Passive", TausNs: "500,1000",
		Shots: 64, Seed: 17, BatchPoints: 1,
	})
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	if !obs.ValidTraceID(st.TraceID) {
		t.Fatalf("campaign trace ID %q invalid", st.TraceID)
	}
	if !st.Terminal() {
		if st, err = client.Watch(ctx, st.ID, nil); err != nil {
			t.Fatalf("Watch: %v", err)
		}
	}
	if st.State != service.StateDone {
		t.Fatalf("campaign ended %s (%s), want done", st.State, st.Error)
	}
	// Wait for the node's completion reports (and their unit end spans)
	// to land before shutting it down.
	for deadline := time.Now().Add(10 * time.Second); w.Stats().Completed < 2 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	wcancel()
	<-done

	hdrMu.Lock()
	if !leaseHeaders[st.TraceID] {
		t.Fatalf("no lease grant carried the campaign trace ID %s (saw %v)", st.TraceID, leaseHeaders)
	}
	hdrMu.Unlock()

	// Every coordinator span of this campaign — and every worker unit
	// span — must carry the campaign's trace ID.
	coordEvents := parseSpans(t, coordSink.String())
	byName := map[string]int{}
	for _, ev := range coordEvents {
		if ev.Trace != st.TraceID {
			t.Fatalf("coordinator span %s/%s has trace %q, want %q", ev.Name, ev.Span, ev.Trace, st.TraceID)
		}
		if ev.Phase == "start" {
			byName[ev.Name]++
		}
	}
	if byName["campaign"] != 1 || byName["job"] != 2 || byName["attempt"] < 2 || byName["lease"] < 2 {
		t.Fatalf("coordinator span census = %v, want 1 campaign, 2 jobs, >=2 attempts, >=2 leases", byName)
	}

	nodeEvents := parseSpans(t, nodeSink.String())
	units := 0
	for _, ev := range nodeEvents {
		if ev.Name != "unit" {
			t.Fatalf("unexpected node span name %q", ev.Name)
		}
		if ev.Trace != st.TraceID {
			t.Fatalf("unit span %s has trace %q, want campaign trace %q", ev.Span, ev.Trace, st.TraceID)
		}
		if !strings.HasSuffix(ev.Span, "/unit") {
			t.Fatalf("unit span ID %q not derived from its lease", ev.Span)
		}
		if ev.Phase == "end" {
			units++
			if ev.Outcome != "complete" {
				t.Fatalf("unit %s ended %q, want complete", ev.Span, ev.Outcome)
			}
		}
	}
	if units != 2 {
		t.Fatalf("node emitted %d unit end spans, want 2", units)
	}

	// The job status keeps reporting the trace ID after completion —
	// the handle a client greps the span stream with.
	if js, ok := srv.Job(st.ID); !ok || js.TraceID != st.TraceID {
		t.Fatalf("job status trace ID %q (ok %v), want %q", js.TraceID, ok, st.TraceID)
	}
}

// parseSpans decodes an NDJSON span stream.
func parseSpans(t *testing.T, text string) []obs.SpanEvent {
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

// TestWorkerMetricsRegistry checks the node's own registry: unit
// outcome counters mirrored from Stats, heartbeat and unit-duration
// series, and the Monte Carlo shard series threaded through execution.
func TestWorkerMetricsRegistry(t *testing.T) {
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

	reg := obs.NewRegistry()
	w, err := New(Options{
		Coordinator: hs.URL, MCWorkers: 1, Poll: 10 * time.Millisecond,
		Metrics: reg,
	})
	if err != nil {
		t.Fatalf("worker.New: %v", err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(wctx)
	}()

	client := service.NewClient(hs.URL)
	spec := service.JobSpec{Type: "sweep", Sweep: &service.SweepJob{
		Policy: "Passive", TauNs: 1000, Shots: 4200, Seed: 13,
	}}
	if st, _, err := client.Run(ctx, spec, nil); err != nil || st.State != service.StateDone {
		t.Fatalf("Run = %+v, %v; want done", st, err)
	}
	for deadline := time.Now().Add(10 * time.Second); w.Stats().Completed == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	wcancel()
	<-done

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	if !strings.Contains(text, "latticesim_worker_units_leased_total 1\n") ||
		!strings.Contains(text, "latticesim_worker_units_completed_total 1\n") {
		t.Fatalf("worker outcome counters wrong:\n%s", text)
	}
	if !strings.Contains(text, "latticesim_worker_unit_seconds_count 1\n") {
		t.Fatalf("unit duration histogram missing:\n%s", text)
	}
	// 4200 shots = 2 shards (4096 + 104): the MC pipeline's shard series
	// must be registered on the node's registry via the execution path.
	if !strings.Contains(text, "latticesim_shard_duration_seconds_count 2\n") {
		t.Fatalf("shard histogram missing or wrong count:\n%s", text)
	}
	if !strings.Contains(text, "latticesim_predecoder_shots_total") {
		t.Fatalf("predecoder counters missing:\n%s", text)
	}
	// The node's own build cache holds the one pipeline it built.
	if !strings.Contains(text, "latticesim_build_cache_misses_total 1\n") ||
		!strings.Contains(text, "latticesim_build_cache_evictions_total 0\n") ||
		strings.Contains(text, "latticesim_build_cache_bytes 0\n") ||
		!strings.Contains(text, "latticesim_build_cache_bytes ") {
		t.Fatalf("build cache series missing or wrong:\n%s", text)
	}
}
