package sweep

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"

	"latticesim/internal/mc"
	"latticesim/internal/obs"
	"latticesim/internal/surface"
)

// cacheBudget is the byte budget of every BuildCache (see its doc).
const cacheBudget = 64 << 20

// BuildCache deduplicates built pipelines across campaign points, keyed
// by the canonical spec hash (SpecKey). A cached *mc.Pipeline is the
// expensive part of a point that depends only on its merge spec: the
// generated circuit, compiled sampler plan, decoder graph and predecoder
// tables. The detector error model and the spec's surface.MergeResult
// are let go once the pipeline is built. Grids routinely repeat
// specs — the Ideal policy collapses every slack to one circuit, Passive
// baselines recur across policy-comparison columns, and presets for
// different figures share (d, p, basis) cells — and each repeat skips
// circuit generation, DEM extraction, graph construction and sampler
// compilation.
//
// A cache may be shared across campaigns (the exp presets do exactly
// that) and is safe for concurrent use: the campaign runner executes
// points sequentially, but trace simulations run their seams
// concurrently and the service's nodes share one cache. Get is
// single-flight per key, so concurrent misses on one spec build it once.
//
// The cache holds at most cacheBudget (64 MiB) of pipelines, counted by
// mc.Pipeline.Bytes, which includes the predecoder memos that runs fill
// after insertion. Each Get re-sums the held pipelines and evicts the
// least recently used until the sum fits; it never evicts a build still
// in flight or the pipeline it returns. Eviction only drops the cache's
// reference, and a pipeline is a pure function of its spec, so no result
// depends on the budget: a caller holding an evicted pipeline keeps a
// working copy, and a later Get of its spec rebuilds the same bytes,
// counted as a miss. Lean sizes (X-basis merge, IBM scaled to 1000 ns,
// p=1e-3) are 0.19, 0.61 and 1.38 MB at d=3, 5 and 7 when built, and
// 0.28, 1.10 and 1.40 MB after a 4096-shot run. The budget is sized from
// a cold traces/factory8.trace pass at d=5: 84 Gets over 75 specs, where
// the longest gap between two uses of one spec (Active to ExtraRounds)
// spans 27 other specs. Keeping those 28 pipelines resident takes about
// 31 MB, so 64 MiB holds twice the pass's working set and the pass
// rebuilds nothing. A workload whose reuse distance exceeds the budget
// (factory8 at d >= 9, long runs at large d) rebuilds instead.
type BuildCache struct {
	mu      sync.Mutex
	budget  int64
	entries map[string]*entry
	// newPipeline builds a spec's pipeline (buildPipeline; tests wrap
	// it to hold a build in flight).
	newPipeline func(surface.MergeSpec) (*mc.Pipeline, error)
	// lru orders the built entries, most recently used first. Builds in
	// flight are not in it, which is what keeps them from eviction.
	lru                     list.List
	hits, misses, evictions int
}

// entry is one spec's slot in a BuildCache. The caller that creates it
// builds the pipeline; done closes when that build ends. pl is written
// under BuildCache.mu, so a nil pl under the lock means the build is
// still in flight. A failed build leaves the map before done closes,
// with its error in err for the callers that waited on it. elem is the
// entry's place in the LRU list while the cache holds it; eviction
// clears it.
type entry struct {
	key  string
	done chan struct{}
	pl   *mc.Pipeline
	err  error
	elem *list.Element
	size int64 // pl.Bytes() at the last re-sum
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{budget: cacheBudget, entries: make(map[string]*entry), newPipeline: buildPipeline}
}

// SpecKey returns the canonical identity of a merge spec's build
// artifacts. Defaulted fields are resolved first by MergeSpec.WithDefaults
// (round counts of 0 mean d+1, cycle times of 0 mean the hardware base
// cycle), so a spec written with explicit defaults and one relying on
// them hash identically.
//
// Stability contract: SpecKey strings are inputs to DeriveSeed (the
// trace simulator keys merge-event seeds on them) and to the service
// layer's content addresses, so the rendered byte layout is frozen the
// same way Point.Key is — resolve-then-render semantics, field order,
// separators and float formatting must not change. Extend only by
// appending fields whose zero value renders identically for existing
// specs. TestKeyAndSeedStability pins a current value.
func SpecKey(s surface.MergeSpec) string {
	s = s.WithDefaults()
	return "d=" + strconv.Itoa(s.D) +
		" basis=" + s.Basis.String() +
		" hw=" + HardwareKey(s.HW) +
		" p=" + fstr(s.P) +
		" tp=" + fstr(s.CyclePNs) +
		" tpp=" + fstr(s.CyclePPrimeNs) +
		" rounds=" + strconv.Itoa(s.RoundsP) + "/" + strconv.Itoa(s.RoundsPPrime) + "/" + strconv.Itoa(s.RoundsMerged) +
		" idle=" + fstr(s.LumpedIdleNs) + "/" + fstr(s.SpreadIdleNs) + "/" + fstr(s.IntraIdleNs)
}

// Get returns the pipeline for the spec, building it on first use. The
// boolean reports whether the pipeline was served from the cache. A
// caller that finds the spec's build in progress waits for it and
// shares its outcome: the pipeline, counted as a hit, or the error. A
// failed build is not cached, so a later Get retries it. The pipeline
// is shared: run it on a shallow copy when setting per-run fields.
func (c *BuildCache) Get(spec surface.MergeSpec) (*mc.Pipeline, bool, error) {
	key := SpecKey(spec)
	c.mu.Lock()
	e, ok := c.entries[key]
	switch {
	case !ok:
		e = &entry{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		return c.build(e, spec)
	case e.pl == nil:
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, false, e.err
		}
		c.mu.Lock()
	}
	c.hits++
	c.use(e)
	c.mu.Unlock()
	return e.pl, true, nil
}

// build constructs the pipeline for an entry this caller just put in
// the map. The release is deferred so that waiters are freed even when
// the build panics; they then get an error, and the panic goes on up
// this caller's stack.
func (c *BuildCache) build(e *entry, spec surface.MergeSpec) (*mc.Pipeline, bool, error) {
	// err holds the outcome waiters see if newPipeline never returns.
	var pl *mc.Pipeline
	err := fmt.Errorf("sweep: build of %s panicked", e.key)
	defer func() {
		c.mu.Lock()
		if err == nil {
			e.pl = pl
			c.misses++
			c.use(e)
		} else {
			e.err = err
			delete(c.entries, e.key)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	pl, err = c.newPipeline(spec)
	return pl, false, err
}

func buildPipeline(spec surface.MergeSpec) (*mc.Pipeline, error) {
	res, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return mc.NewPipeline(res.Circuit)
}

// use marks a built entry most recently used, then re-sums the held
// pipelines and evicts from the least recently used end until the sum
// fits the budget, sparing e. An entry evicted while its waiters were
// still waking is not put back: those waiters get its pipeline all the
// same. Called with c.mu held.
func (c *BuildCache) use(e *entry) {
	switch {
	case e.elem != nil:
		c.lru.MoveToFront(e.elem)
	case c.entries[e.key] == e:
		e.elem = c.lru.PushFront(e)
	}
	sum := c.resum()
	for el := c.lru.Back(); el != nil && sum > c.budget; {
		old := el.Value.(*entry)
		el = el.Prev()
		if old == e {
			continue
		}
		sum -= old.size
		c.lru.Remove(old.elem)
		old.elem = nil
		delete(c.entries, old.key)
		c.evictions++
	}
}

// resum refreshes every held entry's size and returns their total.
// Called with c.mu held.
func (c *BuildCache) resum() int64 {
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		e.size = e.pl.Bytes()
		sum += e.size
	}
	return sum
}

// Stats reports the cache-hit counters: hits is the number of Get calls
// served without building, misses the number of pipeline builds,
// rebuilds after an eviction included.
func (c *BuildCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Usage reports the estimated bytes of the pipelines the cache holds
// now, predecoder memos included, and the number of evictions so far.
// Memos that runs fill after a Get can lift bytes above the budget
// until the next Get evicts.
func (c *BuildCache) Usage() (bytes int64, evictions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resum(), c.evictions
}

// RegisterMetrics publishes the cache on reg: its hit, miss and
// eviction counters, read at scrape time, and the gauge of bytes held,
// set by a scrape callback. A nil registry registers nothing.
func (c *BuildCache) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("latticesim_build_cache_hits_total", "Build-cache fetches served without building.", func() float64 {
		h, _ := c.Stats()
		return float64(h)
	})
	reg.CounterFunc("latticesim_build_cache_misses_total", "Build-cache misses: pipeline builds performed, rebuilds after an eviction included.", func() float64 {
		_, m := c.Stats()
		return float64(m)
	})
	reg.CounterFunc("latticesim_build_cache_evictions_total", "Pipelines the build cache dropped to stay within its memory budget.", func() float64 {
		_, e := c.Usage()
		return float64(e)
	})
	held := reg.Gauge("latticesim_build_cache_bytes", "Estimated heap bytes of the pipelines the build cache holds, predecoder memos included.")
	reg.OnScrape(func() {
		b, _ := c.Usage()
		held.Set(float64(b))
	})
}

// Len returns the number of pipelines held; builds still in flight are
// not counted.
func (c *BuildCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
