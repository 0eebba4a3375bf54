package sweep

import (
	"context"
	"fmt"

	"latticesim/internal/obs"
)

// Config carries a campaign's execution parameters.
type Config struct {
	// Shots per point (default 40000, matching exp.Options).
	Shots int
	// Seed is the campaign seed every point seed derives from
	// (default 0xC0FFEE).
	Seed uint64
	// Workers is the Monte Carlo worker-pool size used inside each point
	// (0 = all CPUs). Points themselves execute sequentially in canonical
	// order, which is what makes streamed output deterministic; the
	// parallelism lives in the sharded shot loop, where it is already
	// bit-reproducible (DESIGN.md §5).
	Workers int
	// MaxPoints stops the campaign after that many newly executed points
	// (0 = run the whole grid). Used by smoke tests and to slice long
	// campaigns into resumable chunks.
	MaxPoints int
	// Progress, when set, observes each record as it completes, with the
	// point's 1-based position and the grid size.
	Progress func(position, total int, r Record)
	// ShotProgress, when set, observes shot-level completion inside each
	// point (cumulative shots done, point budget). It is forwarded to
	// mc.Pipeline.Progress, so it may be called concurrently from Monte
	// Carlo workers; it must be cheap and race-free, and it never affects
	// results. Under an adaptive budget the reported total is the point's
	// current checkpoint target and grows monotonically as the allocator
	// grants more shots; done never exceeds the total reported with it.
	// The simulation service uses it to stream progress events.
	ShotProgress func(doneShots, totalShots int)
	// Adaptive, when non-nil, switches the campaign to adaptive shot
	// allocation (see AdaptiveConfig): Shots becomes a per-point *pool
	// contribution* — the campaign spends at most Shots × feasible
	// points in total, allocated to the widest confidence intervals —
	// and records gain meaningful shots_granted/stop_reason fields.
	// Incompatible with MaxPoints (the pool is sized from the whole
	// grid, so slicing it is ill-defined); Run reports an error when
	// both are set.
	Adaptive *AdaptiveConfig
	// Ctx, when non-nil, cancels execution: Campaign.Run stops between
	// points, and ExecutePoint stops at Monte Carlo shard boundaries
	// (mc.Pipeline.Ctx), returning ctx's error with the partial record
	// discarded. Cancellation can only lose results, never change them —
	// every record actually emitted is bit-identical to an uncancelled
	// run's. The simulation service threads per-job contexts through
	// here for job cancellation and timeouts (DESIGN.md §14).
	Ctx context.Context
	// Metrics, when non-nil, receives the Monte Carlo pipeline's shard
	// and predecoder series (forwarded to mc.Pipeline.Metrics). nil
	// disables instrumentation; results never depend on it.
	Metrics *obs.Registry
}

// ctxErr returns ctx's error when the context is set and done.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// WithDefaults resolves the zero values: 40000 shots, seed 0xC0FFEE.
// Callers that need the resolved values up front (e.g. to pin a manifest
// header) should resolve once and reuse, so their record of the campaign
// can never drift from what Run executes.
func (c Config) WithDefaults() Config {
	if c.Shots == 0 {
		c.Shots = 40000
	}
	if c.Seed == 0 {
		c.Seed = 0xC0FFEE
	}
	return c
}

// Summary reports what a campaign run did.
type Summary struct {
	// Points is the full grid size; Executed were run this invocation,
	// Skipped were already in the manifest, and Infeasible of the executed
	// points had no plan solution (they are recorded and marked done).
	Points, Executed, Skipped, Infeasible int
	// Interrupted is true when MaxPoints ended the run before the grid was
	// exhausted; rerunning the same campaign resumes after the manifest.
	Interrupted bool
}

// Campaign binds a grid to its execution configuration and outputs.
type Campaign struct {
	Grid   Grid
	Config Config
	// Cache deduplicates build artifacts across points. Optional: a fresh
	// cache is used when nil. Sharing one cache across campaigns (as the
	// exp presets do) extends deduplication across them.
	Cache *BuildCache
	// Manifest, when set, makes the run resumable: points whose keys are
	// already journaled are skipped, and completed points are journaled.
	Manifest *Manifest
	// Sinks receive each completed record in canonical point order.
	Sinks []Sink
}

// Run executes the campaign: expand the grid, skip manifest-completed
// points, execute the rest sequentially through the shared artifact
// cache, and stream each record to every sink before journaling the point
// as done (a record is never marked complete before it is durably
// emitted).
func (c *Campaign) Run() (Summary, error) {
	cfg := c.Config.WithDefaults()
	pts, err := c.Grid.Points()
	if err != nil {
		return Summary{}, err
	}
	cache := c.Cache
	if cache == nil {
		cache = NewBuildCache()
	}
	if cfg.Adaptive != nil {
		if cfg.MaxPoints > 0 {
			return Summary{}, fmt.Errorf("sweep: MaxPoints is incompatible with adaptive allocation (the pool is sized from the whole grid)")
		}
		return c.runAdaptive(pts, cfg, cfg.Adaptive.WithDefaults(), cache)
	}

	sum := Summary{Points: len(pts)}
	for i, pt := range pts {
		if err := ctxErr(cfg.Ctx); err != nil {
			return sum, err
		}
		key := pt.Key()
		if c.Manifest != nil && c.Manifest.Done(key) {
			sum.Skipped++
			continue
		}
		if cfg.MaxPoints > 0 && sum.Executed >= cfg.MaxPoints {
			sum.Interrupted = true
			break
		}
		rec, err := ExecutePoint(cache, pt, cfg)
		if err != nil {
			return sum, fmt.Errorf("sweep: point %s: %w", key, err)
		}
		if err := c.emit(&sum, rec, i+1, len(pts)); err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// emit hands one executed record on, the same way for fixed and
// adaptive campaigns: count it, write it to every sink, journal its key
// when the campaign is resumable, then report progress with its
// 1-based grid position.
func (c *Campaign) emit(sum *Summary, rec Record, position, total int) error {
	sum.Executed++
	if !rec.Feasible {
		sum.Infeasible++
	}
	for _, sink := range c.Sinks {
		if err := sink.Write(rec); err != nil {
			return fmt.Errorf("sweep: writing record for %s: %w", rec.Key, err)
		}
	}
	if c.Manifest != nil {
		// Make every sink durable before journaling the key: the
		// manifest must never durably claim a point whose record could
		// still be lost in the page cache.
		for _, sink := range c.Sinks {
			if s, ok := sink.(Syncer); ok {
				if err := s.Sync(); err != nil {
					return fmt.Errorf("sweep: syncing record for %s: %w", rec.Key, err)
				}
			}
		}
		if err := c.Manifest.MarkDone(rec.Key); err != nil {
			return fmt.Errorf("sweep: manifest update for %s: %w", rec.Key, err)
		}
	}
	if c.Config.Progress != nil {
		c.Config.Progress(position, total, rec)
	}
	return nil
}

// ExecutePoint executes one point through a pointRunner: resolve the
// policy plan, fetch (or build) the spec's pipeline, and run shots on
// the point's derived seed. A fixed budget is one advance to cfg.Shots;
// an adaptive one is the allocator over a one-point pool of cfg.Shots
// (with no grid to reallocate across, adaptivity here means early
// stopping). It is the single-point job adapter the simulation service
// calls (one queued job = one point) and what Campaign.Run does per
// fixed point. cfg is used as given (apply WithDefaults first when
// resolved values matter), and cache may be shared across concurrent
// calls. A canceled run returns ctx's error and no record.
func ExecutePoint(cache *BuildCache, pt Point, cfg Config) (Record, error) {
	if err := ctxErr(cfg.Ctx); err != nil {
		return Record{}, err
	}
	r, err := newPointRunner(cache, pt, cfg)
	if err != nil {
		return Record{}, err
	}
	if cfg.Adaptive != nil {
		allocate([]*pointRunner{r}, cfg.Shots, cfg, cfg.Adaptive.WithDefaults())
	} else if !r.stopped {
		r.advance(cfg.Shots, cfg)
		r.reason = StopFixed
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Record{}, err
	}
	return r.finalize(), nil
}

// Collect runs the grid in memory and returns its records in canonical
// order — the form the exp presets consume. The cache argument may be nil
// or shared across calls.
func Collect(g Grid, cfg Config, cache *BuildCache) ([]Record, error) {
	var sink sliceSink
	camp := &Campaign{Grid: g, Config: cfg, Cache: cache, Sinks: []Sink{&sink}}
	if _, err := camp.Run(); err != nil {
		return nil, err
	}
	return sink.recs, nil
}
