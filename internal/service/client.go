package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"latticesim/internal/obs"
)

// RetryPolicy configures client-side resilience: transient failures
// (transport errors, 503 responses from a full queue) are retried with
// exponential backoff and full jitter, honoring the server's
// Retry-After header when present. Every retried request is idempotent
// at the service level — submissions are content-addressed (a re-Submit
// of the same spec coalesces or cache-hits, never runs twice), and the
// GETs/DELETEs are idempotent by construction — so retrying is always
// safe.
type RetryPolicy struct {
	// MaxRetries bounds retries after the initial try (and, for Watch,
	// stream reconnects between observed snapshots).
	MaxRetries int
	// BaseDelay seeds the exponential backoff (0 = 100ms); the delay
	// before retry n is drawn uniformly from (0, min(BaseDelay·2ⁿ,
	// MaxDelay)] — full jitter, so a thundering herd of clients spreads
	// out.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = 5s).
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the policy `latticesim submit -retry` uses:
// 5 retries, 100ms base, 5s cap.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{MaxRetries: 5}
}

// delay computes the backoff before the n-th retry (1-based), preferring
// the server's Retry-After hint when it is longer than the jittered
// exponential.
func (p *RetryPolicy) delay(n int, retryAfter time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	d := base << uint(n-1)
	if d > maxd || d <= 0 {
		d = maxd
	}
	d = time.Duration(rand.Int64N(int64(d))) + time.Millisecond
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Client is the Go client of the simulation service HTTP API, used by
// `latticesim submit`, the examples and the end-to-end tests. The zero
// value is not usable; construct with NewClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8642".
	BaseURL string
	// HTTPClient is the transport (nil = http.DefaultClient). Watch
	// holds one request open for the job's whole runtime, so clients
	// with aggressive timeouts should scope them per call via ctx.
	HTTPClient *http.Client
	// Retry, when non-nil, retries transient failures (see RetryPolicy).
	// nil disables retries: every failure is returned immediately.
	Retry *RetryPolicy
	// Trace, when non-empty, is sent as the X-Latticesim-Trace header
	// on submissions, joining the submitted job to an existing trace
	// ("" lets the server mint a fresh trace ID; the submission
	// response's JobStatus.TraceID reports which).
	Trace string
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIStatusError is a non-2xx server response decoded into its error
// envelope: the HTTP status, the stable machine-readable code, the
// message, and the server's retry hint. A body that is not an envelope
// (a proxy's plain-text error page) becomes the message, with Code "".
type APIStatusError struct {
	// StatusCode is the HTTP status; URL describes the failing request.
	StatusCode int
	URL        string
	// APIError is the decoded envelope payload (Code "" when the body
	// was not an envelope).
	APIError
}

func (e *APIStatusError) Error() string {
	u := ""
	if e.URL != "" {
		u = " (" + e.URL + ")"
	}
	code := ""
	if e.Code != "" {
		code = " [" + e.Code + "]"
	}
	return fmt.Sprintf("service: HTTP %d%s%s: %s", e.StatusCode, u, code, e.Message)
}

// ErrorCode extracts the envelope code from an error returned by this
// client ("" when the error is not an APIStatusError or the server sent
// no code), so callers can branch on stable codes instead of matching
// message text.
func ErrorCode(err error) string {
	var se *APIStatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return ""
}

// apiErr converts a non-2xx response into an *APIStatusError — the one
// parser of error bodies, used by every Client call. It decodes the
// JSON error envelope; any other body becomes the message verbatim.
func apiErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	se := &APIStatusError{StatusCode: resp.StatusCode}
	if resp.Request != nil && resp.Request.URL != nil {
		se.URL = resp.Request.Method + " " + resp.Request.URL.String()
	}
	var env errorEnvelope
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		se.APIError = env.Error
	} else {
		se.Message = string(bytes.TrimSpace(body))
	}
	return se
}

// retryAfter parses a response's Retry-After seconds (0 when absent).
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doRetry runs build→Do→handle with the client's retry policy. build
// must return a fresh request each call (bodies are consumed); handle
// sees only 2xx responses. Transport errors, 503s (full queue), 429s
// (a proxy's rate limit) and handle errors (a torn body — the
// connection died mid-response) are retried; anything else is final.
// Retrying handle is safe because every request through here is
// idempotent. The server's retry hint — the envelope's retry_after_ms,
// or the Retry-After header — floors the backoff.
func (c *Client) doRetry(ctx context.Context, build func() (*http.Request, error), handle func(*http.Response) error) error {
	for n := 0; ; n++ {
		req, err := build()
		if err != nil {
			return err
		}
		resp, err := c.httpClient().Do(req)
		var after time.Duration
		if err == nil {
			if resp.StatusCode >= 200 && resp.StatusCode < 300 {
				herr := handle(resp)
				resp.Body.Close()
				if herr == nil {
					return nil
				}
				err = fmt.Errorf("service: %s %s: %w", req.Method, req.URL, herr)
			} else {
				after = retryAfter(resp)
				aerr := apiErr(resp)
				resp.Body.Close()
				var se *APIStatusError
				if errors.As(aerr, &se) && se.RetryAfterMs > 0 {
					if d := time.Duration(se.RetryAfterMs) * time.Millisecond; d > after {
						after = d
					}
				}
				retryable := resp.StatusCode == http.StatusServiceUnavailable ||
					resp.StatusCode == http.StatusTooManyRequests
				if !retryable {
					return aerr
				}
				err = aerr
			}
		}
		if c.Retry == nil || n >= c.Retry.MaxRetries {
			return err
		}
		if serr := sleepCtx(ctx, c.Retry.delay(n+1, after)); serr != nil {
			return serr
		}
	}
}

// decodeJSON reads a response body fully before unmarshaling, so a
// connection that dies mid-body fails with a transport error instead of
// leaving out half-populated.
func decodeJSON(resp *http.Response, out any) error {
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// getJSON fetches path into out, with retries when configured.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	return c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	}, func(resp *http.Response) error {
		return decodeJSON(resp, out)
	})
}

// Submit posts a job spec and returns its initial status — possibly
// already done when the server answered from its result store (check
// CacheHit / State). Submission is idempotent (results are
// content-addressed and in-flight duplicates coalesce), so a configured
// retry policy re-submits safely after transport errors and
// queue-full 503s, honoring the server's Retry-After.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	err = c.postJSON(ctx, "/v1/jobs", body, &st)
	return st, err
}

// postJSON posts a prepared JSON body to path and decodes the 200
// response into out, with retries and trace propagation.
func (c *Client) postJSON(ctx context.Context, path string, body []byte, out any) error {
	return c.doRetry(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if c.Trace != "" {
			req.Header.Set(obs.TraceHeader, c.Trace)
		}
		return req, nil
	}, func(resp *http.Response) error {
		if out == nil {
			return nil
		}
		return decodeJSON(resp, out)
	})
}

// SubmitCampaign posts a campaign to the noun resource
// (POST /v1/campaigns) and returns the campaign parent's status. Like
// Submit it is idempotent: the campaign's content address dedups
// resubmissions.
func (c *Client) SubmitCampaign(ctx context.Context, cj CampaignJob) (JobStatus, error) {
	body, err := json.Marshal(cj)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	err = c.postJSON(ctx, "/v1/campaigns", body, &st)
	return st, err
}

// Campaign fetches a campaign's status with its per-batch breakdown.
func (c *Client) Campaign(ctx context.Context, id string) (CampaignStatus, error) {
	var st CampaignStatus
	err := c.getJSON(ctx, "/v1/campaigns/"+url.PathEscape(id), &st)
	return st, err
}

// RegisterWorker registers this process as a worker node and returns
// the coordinator's record (the ID in it names the node on every
// subsequent lease call).
func (c *Client) RegisterWorker(ctx context.Context, name string) (WorkerInfo, error) {
	body, err := json.Marshal(registerWorkerRequest{Name: name})
	if err != nil {
		return WorkerInfo{}, err
	}
	var info WorkerInfo
	err = c.postJSON(ctx, "/v1/workers", body, &info)
	return info, err
}

// Workers lists the coordinator's registered worker nodes.
func (c *Client) Workers(ctx context.Context) ([]WorkerInfo, error) {
	var out []WorkerInfo
	err := c.getJSON(ctx, "/v1/workers", &out)
	return out, err
}

// LeaseWork asks the coordinator for one work unit. A nil grant with a
// nil error means there is nothing to lease right now (poll again
// later). ErrorCode(err) == "not_found" means the coordinator no
// longer knows the worker ID (it restarted) — re-register.
func (c *Client) LeaseWork(ctx context.Context, workerID string) (*LeaseGrant, error) {
	var grant *LeaseGrant
	err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/v1/workers/"+url.PathEscape(workerID)+"/lease", nil)
	}, func(resp *http.Response) error {
		if resp.StatusCode == http.StatusNoContent {
			return nil
		}
		grant = new(LeaseGrant)
		return decodeJSON(resp, grant)
	})
	return grant, err
}

// UpdateLease reports on a leased unit (heartbeat, complete, or fail).
// Ack.Valid false tells the worker to abandon the unit: its lease no
// longer owns the job.
func (c *Client) UpdateLease(ctx context.Context, leaseID string, u LeaseUpdate) (LeaseAck, error) {
	body, err := json.Marshal(u)
	if err != nil {
		return LeaseAck{}, err
	}
	var ack LeaseAck
	err = c.postJSON(ctx, "/v1/leases/"+url.PathEscape(leaseID), body, &ack)
	return ack, err
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(id), &st)
	return st, err
}

// Cancel asks the server to stop a queued or running job and returns
// the resulting status. Canceling an already-terminal job returns its
// final status unchanged, so Cancel (like the DELETE it issues) is
// idempotent and safe to retry.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodDelete,
			c.BaseURL+"/v1/jobs/"+url.PathEscape(id), nil)
	}, func(resp *http.Response) error {
		return decodeJSON(resp, &st)
	})
	return st, err
}

// Watch follows a job's NDJSON status stream, invoking fn (which may be
// nil) on every snapshot, and returns the terminal status. With a retry
// policy configured, a dropped stream (connection reset, proxy timeout)
// is transparently reconnected and the watch resumes from the job's
// current state; each observed snapshot resets the reconnect budget, so
// a job only fails the watch after MaxRetries consecutive dead
// connections. Server-reported errors (an unknown or evicted job) are
// final.
func (c *Client) Watch(ctx context.Context, id string, fn func(JobStatus)) (JobStatus, error) {
	var last JobStatus
	seen := false
	failures := 0
	for {
		progressed, err := c.watchOnce(ctx, id, func(st JobStatus) {
			last, seen = st, true
			failures = 0
			if fn != nil {
				fn(st)
			}
		})
		if err == nil && seen && last.Terminal() {
			return last, nil
		}
		var permanent *permanentError
		if errors.As(err, &permanent) {
			return last, permanent.err
		}
		if cerr := ctx.Err(); cerr != nil {
			return last, cerr
		}
		if err == nil {
			err = fmt.Errorf("service: watch stream for %s ended before a terminal state", id)
		}
		if c.Retry == nil || failures >= c.Retry.MaxRetries {
			return last, err
		}
		failures++
		if !progressed {
			if serr := sleepCtx(ctx, c.Retry.delay(failures, 0)); serr != nil {
				return last, serr
			}
		}
	}
}

// permanentError marks a Watch failure that reconnecting cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// watchOnce opens one watch stream and feeds every decoded snapshot to
// observe. It reports whether any snapshot arrived on this connection
// and the error that ended the stream (nil on clean EOF — the caller
// decides whether the last snapshot was terminal).
func (c *Client) watchOnce(ctx context.Context, id string, observe func(JobStatus)) (progressed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+url.PathEscape(id)+"?watch=1", nil)
	if err != nil {
		return false, &permanentError{err}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, &permanentError{apiErr(resp)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var st JobStatus
		if err := json.Unmarshal(line, &st); err != nil {
			// A torn line from a dropped connection, not a protocol error:
			// reconnecting gets a fresh, complete snapshot.
			return progressed, fmt.Errorf("service: watch stream: %w", err)
		}
		progressed = true
		observe(st)
	}
	return progressed, sc.Err()
}

// Result fetches the stored result blob under a content key. The bytes
// are served verbatim from the store, so identical jobs always read
// identical bytes.
func (c *Client) Result(ctx context.Context, key string) ([]byte, error) {
	var data []byte
	err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet,
			c.BaseURL+"/v1/results/"+url.PathEscape(key), nil)
	}, func(resp *http.Response) error {
		var rerr error
		data, rerr = io.ReadAll(resp.Body)
		return rerr
	})
	return data, err
}

// Run is the whole submit→watch→fetch round trip: it submits the spec,
// follows progress (fn may be nil), and returns the terminal status
// with the result bytes (nil when the job failed — the status carries
// the error).
func (c *Client) Run(ctx context.Context, spec JobSpec, fn func(JobStatus)) (JobStatus, []byte, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return st, nil, err
	}
	if fn != nil {
		fn(st)
	}
	if !st.Terminal() {
		if st, err = c.Watch(ctx, st.ID, fn); err != nil {
			return st, nil, err
		}
	}
	if st.State != StateDone {
		return st, nil, nil
	}
	data, err := c.Result(ctx, st.Key)
	return st, data, err
}

// Stats fetches the server counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.getJSON(ctx, "/v1/stats", &st)
	return st, err
}
