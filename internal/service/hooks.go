package service

import "context"

// Hooks are optional interception points the chaos harness (and any
// other test instrumentation) uses to inject faults into a running
// server without the production code knowing about the injector. Every
// field may be nil; non-nil hooks are invoked synchronously on the hot
// path, so they must be cheap when they choose not to act.
//
// The hook signatures are plain (strings, byte slices, contexts) so an
// injector package never needs to import service — which in turn lets
// the chaos suite live inside this package and reach internal
// invariants. See internal/faultinject for the deterministic injector
// that drives them.
type Hooks struct {
	// BeforeExec runs at the top of every attempt an in-process node
	// executes, before any batch work, with the attempt's context (its
	// timeout included). It may panic (the UnitRunner's panic guard turns
	// that into a retried attempt), and it may block to simulate a
	// stalled worker — a blocked hook should honor ctx so the goroutine
	// can be reclaimed once the watchdog expires the lease or the job is
	// canceled.
	BeforeExec func(ctx context.Context, jobID string, attempt int)
	// StorePut intercepts result bytes on their way into the store and
	// returns the bytes actually written to the object file. Returning a
	// mangled copy simulates a torn or corrupted write; the store's
	// checksum (computed from the true bytes, written first) then catches
	// the damage on the next read. Returning data unchanged is a no-op.
	StorePut func(key string, data []byte) []byte
	// StoreGet runs before every store read; it may sleep to simulate a
	// slow disk.
	StoreGet func(key string)
}

// beforeExec invokes the hook when set.
func (h *Hooks) beforeExec(ctx context.Context, jobID string, attempt int) {
	if h != nil && h.BeforeExec != nil {
		h.BeforeExec(ctx, jobID, attempt)
	}
}

// storePut filters object bytes through the hook when set.
func (h *Hooks) storePut(key string, data []byte) []byte {
	if h != nil && h.StorePut != nil {
		return h.StorePut(key, data)
	}
	return data
}

// storeGet invokes the hook when set.
func (h *Hooks) storeGet(key string) {
	if h != nil && h.StoreGet != nil {
		h.StoreGet(key)
	}
}
