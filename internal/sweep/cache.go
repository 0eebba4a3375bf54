package sweep

import (
	"fmt"
	"strconv"
	"sync"

	"latticesim/internal/mc"
	"latticesim/internal/surface"
)

// Artifact is everything expensive a point needs that depends only on its
// merge spec: the generated circuit with its layout metadata, and the
// pipeline bundling the extracted detector error model, decoder graph and
// compiled sampler plan (mc.NewPipeline compiles the plan, so cache hits
// also skip sampler compilation — every point sharing a spec runs off one
// immutable frame.Plan).
type Artifact struct {
	Build    *surface.MergeResult
	Pipeline *mc.Pipeline
}

// BuildCache deduplicates Artifacts across campaign points, keyed by the
// canonical spec hash (SpecKey). Grids routinely repeat specs — the Ideal
// policy collapses every slack to one circuit, Passive baselines recur
// across policy-comparison columns, and presets for different figures
// share (d, p, basis) cells — and each repeat skips circuit generation,
// DEM extraction and decoder-graph construction.
//
// A cache may be shared across campaigns (the exp presets do exactly
// that) and is safe for concurrent use: the campaign runner executes
// points sequentially, but trace simulations run their seams
// concurrently and the service's nodes share one cache. Get is
// single-flight per key, so concurrent misses on one spec build it once.
//
// The cache is unbounded: it holds one artifact set per distinct spec for
// its lifetime, trading memory for reuse. Artifacts are a few MB each at
// the largest paper distance (d=15), and a grid's distinct-spec count is
// bounded by its point count, so even paper-scale campaigns stay in the
// hundreds of MB; scope a cache to a campaign (pass nil) when that
// matters more than cross-campaign dedup.
type BuildCache struct {
	mu     sync.Mutex
	arts   map[string]*entry
	hits   int
	misses int
}

// entry is one spec's slot in a BuildCache. The caller that creates it
// builds the artifacts; done closes when that build ends. art is
// written under BuildCache.mu, so a nil art under the lock means the
// build is still in flight. A failed build leaves the map before done
// closes, with its error in err for the callers that waited on it.
type entry struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{arts: make(map[string]*entry)}
}

// SpecKey returns the canonical identity of a merge spec's build
// artifacts. Defaulted fields are resolved first (round counts of 0 mean
// d+1, cycle times of 0 mean the hardware base cycle), so a spec written
// with explicit defaults and one relying on them hash identically.
//
// Stability contract: SpecKey strings are inputs to DeriveSeed (the
// trace simulator keys merge-event seeds on them) and to the service
// layer's content addresses, so the rendered byte layout is frozen the
// same way Point.Key is — resolve-then-render semantics, field order,
// separators and float formatting must not change. Extend only by
// appending fields whose zero value renders identically for existing
// specs. TestKeyAndSeedStability pins a current value.
func SpecKey(s surface.MergeSpec) string {
	base := s.HW.CycleNs()
	if s.CyclePNs == 0 {
		s.CyclePNs = base
	}
	if s.CyclePPrimeNs == 0 {
		s.CyclePPrimeNs = base
	}
	if s.RoundsP == 0 {
		s.RoundsP = s.D + 1
	}
	if s.RoundsPPrime == 0 {
		s.RoundsPPrime = s.D + 1
	}
	if s.RoundsMerged == 0 {
		s.RoundsMerged = s.D + 1
	}
	return "d=" + strconv.Itoa(s.D) +
		" basis=" + s.Basis.String() +
		" hw=" + HardwareKey(s.HW) +
		" p=" + fstr(s.P) +
		" tp=" + fstr(s.CyclePNs) +
		" tpp=" + fstr(s.CyclePPrimeNs) +
		" rounds=" + strconv.Itoa(s.RoundsP) + "/" + strconv.Itoa(s.RoundsPPrime) + "/" + strconv.Itoa(s.RoundsMerged) +
		" idle=" + fstr(s.LumpedIdleNs) + "/" + fstr(s.SpreadIdleNs) + "/" + fstr(s.IntraIdleNs)
}

// Get returns the artifacts for the spec, building them on first use.
// The boolean reports whether the artifacts were served from the cache.
// A caller that finds the spec's build in progress waits for it and
// shares its outcome: the artifact, counted as a hit, or the error. A
// failed build is not cached, so a later Get retries it.
func (c *BuildCache) Get(spec surface.MergeSpec) (*Artifact, bool, error) {
	key := SpecKey(spec)
	c.mu.Lock()
	e, ok := c.arts[key]
	switch {
	case !ok:
		e = &entry{done: make(chan struct{})}
		c.arts[key] = e
		c.mu.Unlock()
		return c.build(key, e, spec)
	case e.art == nil:
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, false, e.err
		}
		c.mu.Lock()
	}
	c.hits++
	c.mu.Unlock()
	return e.art, true, nil
}

// build constructs the artifacts for an entry this caller just put in
// the map. The release is deferred so that waiters are freed even when
// the build panics; they then get an error, and the panic goes on up
// this caller's stack.
func (c *BuildCache) build(key string, e *entry, spec surface.MergeSpec) (*Artifact, bool, error) {
	// err holds the outcome waiters see if newArtifact never returns.
	var art *Artifact
	err := fmt.Errorf("sweep: build of %s panicked", key)
	defer func() {
		c.mu.Lock()
		if err == nil {
			e.art = art
			c.misses++
		} else {
			e.err = err
			delete(c.arts, key)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	art, err = newArtifact(spec)
	return art, false, err
}

func newArtifact(spec surface.MergeSpec) (*Artifact, error) {
	res, err := spec.Build()
	if err != nil {
		return nil, err
	}
	pl, err := mc.NewPipeline(res.Circuit)
	if err != nil {
		return nil, err
	}
	return &Artifact{Build: res, Pipeline: pl}, nil
}

// Stats reports the cache-hit counters: hits is the number of Get calls
// served without building, misses the number of artifact constructions.
func (c *BuildCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of distinct artifacts held; builds still in
// flight are not counted.
func (c *BuildCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.arts {
		if e.art != nil {
			n++
		}
	}
	return n
}
