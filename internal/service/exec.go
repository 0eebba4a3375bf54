package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"latticesim/internal/obs"
	"latticesim/internal/sweep"
	"latticesim/internal/trace"
)

// UnitRunner is the one execution path every leased work unit takes,
// on the coordinator's in-process nodes (Options.Workers) and on
// internal/worker's remote nodes alike. The before-hook runs first,
// then the unit executes. Hook and execution share one panic guard and
// one wall-time bound, the grant's spec.timeout_ms (the spec's own
// timeout, or else the coordinator's JobTimeout). Execution is
// deterministic: volatile fields (wall times) are zeroed or absent, so
// two executions of the same spec produce identical bytes — which is
// what makes crash-safe retries, and the integrity cross-checks on late
// completions, sound.
type UnitRunner struct {
	// Cache is the build cache units execute against (required).
	Cache *sweep.BuildCache
	// MCWorkers sizes each unit's Monte Carlo pool (0 = GOMAXPROCS).
	MCWorkers int
	// Metrics, when non-nil, receives the pipeline's shard-duration and
	// predecoder series (nil disables instrumentation at zero cost).
	Metrics *obs.Registry
	// Before, when non-nil, runs first, under the unit's timeout — a
	// test seam for stalling, failing or panicking a unit. A returned
	// error fails the unit without executing it.
	Before func(ctx context.Context, g *LeaseGrant) error
}

// Run executes the unit g grants and returns its report: "complete"
// with the result bytes, or "fail" with the error and its reason
// ("panic", "timeout" or "error"). ctx cancels the unit; cancellation
// is observed at shard boundaries (sweeps) and merge boundaries
// (traces), losing work but never changing surviving results.
// onProgress (nil allowed) observes progress in the unit's native unit
// and is the transport's lease-renewal trigger.
func (ur *UnitRunner) Run(ctx context.Context, g *LeaseGrant, onProgress func(Progress)) LeaseUpdate {
	return ur.run(ctx, g, nil, onProgress)
}

// run is Run with the unit optionally pre-resolved: in-process nodes
// hand over the coordinator's resolved job, remote nodes resolve the
// grant's spec.
func (ur *UnitRunner) run(ctx context.Context, g *LeaseGrant, r *resolvedJob, onProgress func(Progress)) LeaseUpdate {
	if t := g.Spec.TimeoutMs; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(t)*time.Millisecond)
		defer cancel()
	}
	panicked := false
	data, err := func() (data []byte, err error) {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		if ur.Before != nil {
			if err := ur.Before(ctx, g); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if r == nil {
			if r, err = resolveUnit(g.Spec); err != nil {
				return nil, err
			}
		}
		return executeResolved(ctx, ur.Cache, r, ur.MCWorkers, onProgress, ur.Metrics)
	}()
	switch {
	case err == nil:
		return LeaseUpdate{Event: "complete", Result: data}
	case panicked:
		return LeaseUpdate{Event: "fail", Error: err.Error(), Reason: "panic"}
	case ctx.Err() == context.DeadlineExceeded:
		return LeaseUpdate{Event: "fail", Error: err.Error(), Reason: "timeout"}
	}
	return LeaseUpdate{Event: "fail", Error: err.Error(), Reason: "error"}
}

// ExecuteSpec resolves a job spec and executes it in-process, outside
// any lease — the reference execution tests and benchmarks compare
// served bytes against. workers sizes the Monte Carlo pool (0 =
// GOMAXPROCS); onProgress (nil allowed) observes progress in the job's
// native unit. Campaign specs are refused: campaigns are scheduled by
// the coordinator, only their batch children execute.
func ExecuteSpec(ctx context.Context, cache *sweep.BuildCache, spec JobSpec, workers int, onProgress func(Progress)) ([]byte, error) {
	r, err := resolveUnit(spec)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = sweep.NewBuildCache()
	}
	return executeResolved(ctx, cache, r, workers, onProgress, nil)
}

// resolveUnit resolves a spec for execution, refusing campaigns.
func resolveUnit(spec JobSpec) (*resolvedJob, error) {
	if spec.Type == "campaign" {
		return nil, fmt.Errorf("service: campaign jobs are scheduled by the coordinator, not executed directly")
	}
	r, err := spec.resolve()
	if err != nil {
		return nil, &SpecError{Err: err}
	}
	return r, nil
}

// executeResolved dispatches a resolved job to its executor.
func executeResolved(ctx context.Context, cache *sweep.BuildCache, r *resolvedJob, workers int, onProgress func(Progress), metrics *obs.Registry) ([]byte, error) {
	if onProgress == nil {
		onProgress = func(Progress) {}
	}
	switch r.spec.Type {
	case "sweep":
		return executeSweep(ctx, cache, r, workers, onProgress, metrics)
	case "trace":
		return executeTrace(ctx, cache, r, workers, onProgress)
	case "batch":
		return executeBatch(ctx, cache, r, workers, onProgress, metrics)
	}
	return nil, fmt.Errorf("service: unresolvable job type %q", r.spec.Type)
}

// executeSweep runs the job's single campaign point via the shared
// build cache, streaming shot-level progress, and canonicalizes the
// record (wall_ms zeroed — the only nondeterministic field) so
// re-submissions serve bit-identical bytes.
func executeSweep(ctx context.Context, cache *sweep.BuildCache, r *resolvedJob, workers int, onProgress func(Progress), metrics *obs.Registry) ([]byte, error) {
	cfg := r.scfg
	cfg.Workers = workers
	cfg.Ctx = ctx
	cfg.Metrics = metrics
	cfg.ShotProgress = func(done, total int) {
		onProgress(Progress{Done: done, Total: total, Unit: "shots"})
	}
	rec, err := sweep.ExecutePoint(cache, r.pt, cfg)
	if err != nil {
		return nil, err
	}
	return rec.CanonicalJSON()
}

// executeBatch runs the batch's points sequentially in listed order
// (the canonical grid order its campaign cut it from) and concatenates
// their canonical record lines. Progress counts whole points; inner
// shot progress is forwarded at the same point count so lease
// heartbeats keep flowing through a long point.
func executeBatch(ctx context.Context, cache *sweep.BuildCache, r *resolvedJob, workers int, onProgress func(Progress), metrics *obs.Registry) ([]byte, error) {
	var out []byte
	n := len(r.units)
	for i, u := range r.units {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		done := i
		line, err := executeSweep(ctx, cache, u, workers, func(Progress) {
			onProgress(Progress{Done: done, Total: n, Unit: "points"})
		}, metrics)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out = append(out, line...)
		out = append(out, '\n')
		onProgress(Progress{Done: i + 1, Total: n, Unit: "points"})
	}
	return out, nil
}

// executeTrace simulates the job's program under each policy in
// request order, sharing the build cache, and reports progress in
// merge events summed across policies. The assembled ResultSet
// deliberately carries no Source label: stored bytes must be a pure
// function of the content address, and the source (a file name, a
// workload label) is submission metadata, not physics.
func executeTrace(ctx context.Context, cache *sweep.BuildCache, r *resolvedJob, workers int, onProgress func(Progress)) ([]byte, error) {
	cfg := r.tcfg
	cfg.Workers = workers
	cfg.Cache = cache
	cfg.Ctx = ctx
	prog, pols := r.prog, r.pols
	perPolicy := prog.Merges()
	total := perPolicy * len(pols)
	results := make([]*trace.Result, 0, len(pols))
	for i, pol := range pols {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		offset := i * perPolicy
		cfg.Progress = func(done, _ int) {
			onProgress(Progress{Done: offset + done, Total: total, Unit: "merges"})
		}
		res, err := trace.Simulate(prog, pol, cfg)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol, err)
		}
		results = append(results, res)
	}
	rs := trace.NewResultSet(prog, cfg, "", results)
	return json.Marshal(rs)
}
