package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestQueueFullOverTheWire drives a real server into ErrQueueFull. The
// bounded queue is the server's only admission rule: its rejection is
// a 503 with a Retry-After header and the queue_full envelope, the
// client surfaces the code, and campaign batch children are exempt.
func TestQueueFullOverTheWire(t *testing.T) {
	// Coordinator-only (Workers: -1): nothing runs, so the one queue
	// slot stays taken.
	srv, client := newTestServer(t, Options{Workers: -1, QueueDepth: 1})
	ctx := context.Background()

	// The first submission fills the queue. It carries the retired
	// attribution header, which the server accepts and ignores for one
	// release (API.md, "Deprecation policy").
	body, _ := json.Marshal(sweepSpec(1000, 64, 1))
	req, _ := http.NewRequest(http.MethodPost, client.BaseURL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || st.State != StateQueued {
		t.Fatalf("first submission: HTTP %d, %+v (decode: %v), want 200 and queued", resp.StatusCode, st, err)
	}

	// The second distinct submission finds the queue full.
	body, _ = json.Marshal(sweepSpec(1000, 64, 2))
	resp, err = http.Post(client.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Error.Code != CodeQueueFull || env.Error.RetryAfterMs != 1000 {
		t.Fatalf("envelope = %+v, want code %q with retry_after_ms 1000", env.Error, CodeQueueFull)
	}

	// Through the client, without retry, the code reaches the caller.
	if _, err := client.Submit(ctx, sweepSpec(1000, 64, 3)); ErrorCode(err) != CodeQueueFull {
		t.Fatalf("client submission to a full queue: %v, want code %q", err, CodeQueueFull)
	}

	// A campaign of four one-point batches is still admitted: its
	// children are exempt from the bound.
	if _, err := client.SubmitCampaign(ctx, CampaignJob{
		Policies: "Passive,Active", TausNs: "500,1000",
		Shots: 64, Seed: 11, BatchPoints: 1,
	}); err != nil {
		t.Fatalf("campaign submitted to a full queue: %v", err)
	}
	if st := srv.Stats(); st.BatchChildren != 4 || st.Queued != 5 {
		t.Fatalf("stats: %d batch children, %d queued; want 4 and 5 (the first job and every child)",
			st.BatchChildren, st.Queued)
	}

	// Nor do the children take queue room: once the first job is
	// canceled, a plain submission fits beside them.
	if _, err := client.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel %s: %v", st.ID, err)
	}
	if _, err := client.Submit(ctx, sweepSpec(1000, 64, 4)); err != nil {
		t.Fatalf("submission beside four queued batch children: %v", err)
	}
}

// TestErrorEnvelopeOnEveryEndpoint forces a failure out of each v1
// endpoint and asserts the response is the JSON error envelope with
// the expected status and stable code.
func TestErrorEnvelopeOnEveryEndpoint(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: -1})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"submit bad JSON", "POST", "/v1/jobs", "{not json", http.StatusBadRequest, CodeBadRequest},
		{"submit bad spec", "POST", "/v1/jobs", `{"type":"nope"}`, http.StatusBadRequest, CodeBadRequest},
		{"job not found", "GET", "/v1/jobs/j999", "", http.StatusNotFound, CodeNotFound},
		{"cancel not found", "DELETE", "/v1/jobs/j999", "", http.StatusNotFound, CodeNotFound},
		{"campaign bad JSON", "POST", "/v1/campaigns", "{not json", http.StatusBadRequest, CodeBadRequest},
		{"campaign bad grid", "POST", "/v1/campaigns", `{"policies":"NoSuchPolicy"}`, http.StatusBadRequest, CodeBadRequest},
		{"campaign not found", "GET", "/v1/campaigns/j999", "", http.StatusNotFound, CodeNotFound},
		{"register bad JSON", "POST", "/v1/workers", "{not json", http.StatusBadRequest, CodeBadRequest},
		{"lease unknown worker", "POST", "/v1/workers/w999/lease", "", http.StatusNotFound, CodeNotFound},
		{"lease bad event", "POST", "/v1/leases/l000001", `{"event":"nope"}`, http.StatusBadRequest, CodeBadRequest},
		{"result bad key", "GET", "/v1/results/nothex", "", http.StatusBadRequest, CodeBadRequest},
		{"result not found", "GET", "/v1/results/" + strings.Repeat("ab", 32), "", http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest(tc.method, client.BaseURL+tc.path, strings.NewReader(tc.body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.method, tc.path, err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var env struct {
				Error APIError `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("decode envelope: %v", err)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q (message %q)", env.Error.Code, tc.code, env.Error.Message)
			}
			if env.Error.Message == "" {
				t.Fatal("envelope has an empty message")
			}
		})
	}
}

// TestPutResultRetired checks that the retired result-write route is
// gone: a PUT to /v1/results/{key} is refused as a method the resource
// does not allow, so a result can enter the store only through a
// fenced lease report.
func TestPutResultRetired(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: -1})
	req, _ := http.NewRequest(http.MethodPut, client.BaseURL+"/v1/results/"+strings.Repeat("ab", 32), strings.NewReader("data"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT /v1/results: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != "GET, HEAD" {
		t.Fatalf("Allow = %q, want \"GET, HEAD\"", got)
	}
}

// TestClientToleratesLegacyErrorBody checks the two error-body shapes
// the one parser (apiErr) accepts: the JSON envelope decodes into code
// and message, and a body that is not one (a proxy's plain-text page)
// becomes the message verbatim, with no code.
func TestClientToleratesLegacyErrorBody(t *testing.T) {
	for _, tc := range []struct {
		name, body, wantCode, wantMsg string
	}{
		{"envelope", `{"error":{"code":"queue_full","message":"queue is full"}}`, CodeQueueFull, "queue is full"},
		{"plain text", "service unavailable", "", "service unavailable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, tc.body, http.StatusServiceUnavailable)
			}))
			defer hs.Close()
			_, err := NewClient(hs.URL).Job(context.Background(), "j001")
			var apiErr *APIStatusError
			if !errors.As(err, &apiErr) {
				t.Fatalf("error is %T (%v), want *APIStatusError", err, err)
			}
			if apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.Code != tc.wantCode {
				t.Fatalf("got status %d code %q, want 503 with code %q", apiErr.StatusCode, apiErr.Code, tc.wantCode)
			}
			if !strings.Contains(apiErr.Message, tc.wantMsg) {
				t.Fatalf("message %q does not contain %q", apiErr.Message, tc.wantMsg)
			}
		})
	}
}

// TestFleetLeaseLifecycle walks the worker-facing API directly:
// register, lease, heartbeat, complete — then checks a late completion
// from a dead worker's expired lease is integrity-checked and, when
// its bytes differ, flags the job naming the offending worker.
func TestFleetLeaseLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, Options{
		Workers: -1, MCWorkers: 1, Lease: 100 * time.Millisecond,
	})

	a, err := srv.RegisterWorker("node-a")
	if err != nil {
		t.Fatalf("register a: %v", err)
	}
	b, err := srv.RegisterWorker("node-b")
	if err != nil {
		t.Fatalf("register b: %v", err)
	}
	if ws := srv.Workers(); len(ws) != 2 || ws[0].ID != a.ID || ws[1].ID != b.ID {
		t.Fatalf("Workers() = %+v, want [a b]", ws)
	}

	spec := sweepSpec(1000, 64, 42)
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	grantA, err := srv.LeaseWork(a.ID)
	if err != nil || grantA == nil {
		t.Fatalf("lease to a = %v, %v; want a grant", grantA, err)
	}
	if grantA.JobID != st.ID || grantA.Key != st.Key || grantA.Attempt != 1 {
		t.Fatalf("grant = %+v, want job %s key %s attempt 1 fresh", grantA, st.ID, st.Key)
	}
	if g, err := srv.LeaseWork(b.ID); err != nil || g != nil {
		t.Fatalf("second lease = %v, %v; want no work while a holds the lease", g, err)
	}
	if ack, err := srv.UpdateLease(grantA.LeaseID, LeaseUpdate{Event: "heartbeat"}); err != nil || !ack.Valid {
		t.Fatalf("heartbeat ack = %+v, %v; want valid", ack, err)
	}

	// Worker a goes silent; the watchdog expires the lease and requeues,
	// and worker b picks up the fresh attempt.
	var grantB *LeaseGrant
	deadline := time.Now().Add(5 * time.Second)
	for grantB == nil {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired and requeued for worker b")
		}
		time.Sleep(10 * time.Millisecond)
		if grantB, err = srv.LeaseWork(b.ID); err != nil {
			t.Fatalf("lease to b: %v", err)
		}
	}
	if grantB.Attempt <= grantA.Attempt {
		t.Fatalf("b's attempt %d not past a's %d", grantB.Attempt, grantA.Attempt)
	}

	data, err := ExecuteSpec(context.Background(), nil, spec, 1, nil)
	if err != nil {
		t.Fatalf("ExecuteSpec: %v", err)
	}
	if ack, err := srv.UpdateLease(grantB.LeaseID, LeaseUpdate{Event: "complete", Result: data}); err != nil || !ack.Valid {
		t.Fatalf("b's completion ack = %+v, %v; want valid", ack, err)
	}
	got, _ := srv.Job(st.ID)
	if got.State != StateDone || got.Worker != b.ID {
		t.Fatalf("job after b's completion = state %s worker %s, want done/%s", got.State, got.Worker, b.ID)
	}

	// Worker a rises from the dead and reports different bytes under its
	// stale lease: the cross-node integrity check must flag the job and
	// name a.
	corrupt := append(bytes.Clone(data), []byte("tampered")...)
	if ack, err := srv.UpdateLease(grantA.LeaseID, LeaseUpdate{Event: "complete", Result: corrupt}); err != nil || ack.Valid {
		t.Fatalf("stale completion ack = %+v, %v; want invalid", ack, err)
	}
	got, _ = srv.Job(st.ID)
	if got.State != StateIntegrityError {
		t.Fatalf("job state = %s, want %s after mismatched late completion", got.State, StateIntegrityError)
	}
	if !strings.Contains(got.Error, a.ID) {
		t.Fatalf("integrity error %q does not name worker %s", got.Error, a.ID)
	}
	stats := srv.Stats()
	if stats.IntegrityChecks == 0 || stats.IntegrityFailures != 1 {
		t.Fatalf("stats integrity checks/failures = %d/%d, want >0/1", stats.IntegrityChecks, stats.IntegrityFailures)
	}
	if stats.Workers != 2 {
		t.Fatalf("stats workers = %d, want 2", stats.Workers)
	}
}

// TestLeaseUnknownIsInvalid checks reports against unknown or resolved
// leases are acknowledged as invalid rather than erroring — the signal
// a worker uses to abandon a unit.
func TestLeaseUnknownIsInvalid(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: -1})
	for _, ev := range []string{"heartbeat", "complete", "fail"} {
		ack, err := srv.UpdateLease("l999999", LeaseUpdate{Event: ev})
		if err != nil || ack.Valid {
			t.Fatalf("%s on unknown lease = %+v, %v; want invalid ack, nil error", ev, ack, err)
		}
	}
	if _, err := srv.LeaseWork("w999"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("LeaseWork unknown worker = %v, want ErrUnknownWorker", err)
	}
}
