package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Error codes carried in the JSON error envelope. Every non-2xx response
// from a v1 endpoint has the body
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": N}}
//
// where retry_after_ms is present only on retryable rejections
// (queue_full). The set of codes is part of the API contract (API.md);
// new codes may be added, existing ones never change meaning, and a
// retired code is never reused.
const (
	// CodeBadRequest marks a malformed or invalid request body, path or
	// parameter. Retrying the identical request cannot succeed.
	CodeBadRequest = "bad_request"
	// CodeNotFound marks an unknown job, campaign, worker, lease or
	// result key.
	CodeNotFound = "not_found"
	// CodeQueueFull marks a submission rejected because the bounded
	// queue has no room; retry after the hinted delay.
	CodeQueueFull = "queue_full"
	// CodeShuttingDown marks a request refused because the server is
	// closing.
	CodeShuttingDown = "shutting_down"
	// CodeInternal marks everything else.
	CodeInternal = "internal"
)

// APIError is the payload of the JSON error envelope: a stable
// machine-readable code, a human-readable message, and (on retryable
// rejections) a retry hint in milliseconds.
type APIError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// errorEnvelope is the wire form of every non-2xx response body.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError emits the JSON error envelope. A positive retryAfter is
// surfaced twice — as the envelope's retry_after_ms and as a
// Retry-After header (whole seconds, rounded up, for header-only
// clients).
func writeError(w http.ResponseWriter, status int, code string, retryAfter time.Duration, format string, args ...any) {
	e := APIError{Code: code, Message: fmt.Sprintf(format, args...)}
	if retryAfter > 0 {
		e.RetryAfterMs = retryAfter.Milliseconds()
		secs := (retryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	writeJSON(w, status, errorEnvelope{Error: e})
}
