package sweep

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/surface"
)

// evictionSpecs returns n distinct d=3 merge specs, differing in p.
func evictionSpecs(n int) []surface.MergeSpec {
	specs := make([]surface.MergeSpec, n)
	for i := range specs {
		specs[i] = surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.Google(), P: float64(i+1) * 1e-3}
	}
	return specs
}

// TestEvictionDoesNotPerturbRecords: a cache whose budget is below one
// pipeline evicts on every Get, so each spec this grid repeats is
// rebuilt, and its records must be byte-identical to an unbounded
// cache's. Ideal ignores the slack axis, and the error-rate axis sits
// between its two slacks, so each Ideal spec comes back after another
// spec has evicted it.
func TestEvictionDoesNotPerturbRecords(t *testing.T) {
	g := Grid{
		HW:         hardware.Google(),
		Policies:   []core.Policy{core.Ideal, core.Passive},
		Distances:  []int{3},
		SlackNs:    []float64{500, 1000},
		ErrorRates: []float64{1e-3, 2e-3},
	}
	const distinct = 6 // Ideal: one spec per p; Passive: one per (slack, p)
	collect := func(cache *BuildCache) string {
		t.Helper()
		var recs sliceSink
		camp := &Campaign{Grid: g, Config: quickCfg, Cache: cache, Sinks: []Sink{&recs}}
		if _, err := camp.Run(); err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, r := range recs.recs {
			b, err := r.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			out = append(append(out, b...), '\n')
		}
		return string(out)
	}
	unbounded := NewCacheWithBudget(math.MaxInt64)
	want := collect(unbounded)
	if _, misses := unbounded.Stats(); misses != distinct {
		t.Fatalf("unbounded cache built %d pipelines, want %d", misses, distinct)
	}
	tiny := NewCacheWithBudget(1)
	if got := collect(tiny); got != want {
		t.Fatalf("records under eviction differ from the unbounded cache's:\n%s\nvs\n%s", got, want)
	}
	_, misses := tiny.Stats()
	bytes, evictions := tiny.Usage()
	if evictions == 0 || misses <= distinct {
		t.Fatalf("tiny budget: %d evictions, %d builds; want evictions and more than %d builds", evictions, misses, distinct)
	}
	if n := tiny.Len(); n != 1 || bytes <= 0 {
		t.Fatalf("tiny budget holds %d pipelines (%d bytes), want just the last one returned", n, bytes)
	}
}

// TestCacheNeverEvictsInFlight holds one spec's build in flight while
// two other specs build and evict each other under a budget below one
// pipeline. The in-flight entry must stay in the map, so the spec is
// built once and its later Gets are hits.
func TestCacheNeverEvictsInFlight(t *testing.T) {
	specs := evictionSpecs(3)
	slow := SpecKey(specs[0])
	cache := NewCacheWithBudget(1)
	// entered holds one send per build of the slow spec; a second build,
	// the failure this test looks for, must not block on it.
	entered, release := make(chan struct{}, 2), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	var mu sync.Mutex
	builds := map[string]int{}
	cache.newPipeline = func(s surface.MergeSpec) (*mc.Pipeline, error) {
		mu.Lock()
		builds[SpecKey(s)]++
		mu.Unlock()
		if SpecKey(s) == slow {
			entered <- struct{}{}
			<-release
		}
		return buildPipeline(s)
	}
	first := make(chan *mc.Pipeline, 1)
	go func() {
		pl, _, err := cache.Get(specs[0])
		if err != nil {
			t.Error(err)
		}
		first <- pl
	}()
	<-entered
	for _, s := range specs[1:] {
		if _, _, err := cache.Get(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, evictions := cache.Usage(); evictions != 1 {
		t.Fatalf("%d evictions while the slow build was in flight, want 1", evictions)
	}
	cache.mu.Lock()
	e := cache.entries[slow]
	cache.mu.Unlock()
	if e == nil {
		t.Fatal("eviction dropped a build still in flight")
	}
	unblock()
	pl := <-first
	again, hit, err := cache.Get(specs[0])
	if err != nil || !hit || again != pl {
		t.Fatalf("Get after the slow build: hit %v, same pipeline %v, err %v; want a hit on the built pipeline", hit, again == pl, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if builds[slow] != 1 {
		t.Fatalf("slow spec built %d times, want 1", builds[slow])
	}
}

// TestCacheEvictionUnderConcurrency: goroutines Get more specs than
// the budget holds and run what they get. Every caller's pipeline must
// run and tally exactly what a private pipeline of its spec tallies,
// evicted or not, and once a last Get has re-summed the memos those
// runs filled, the cache must hold no more than its budget. Run it
// under -race -count=10.
func TestCacheEvictionUnderConcurrency(t *testing.T) {
	const shots, seed = 256, 5
	specs := evictionSpecs(6)
	want := make([]mc.LERResult, len(specs))
	var largest int64
	for i, s := range specs {
		pl, err := buildPipeline(s)
		if err != nil {
			t.Fatal(err)
		}
		pl.Workers = 1
		want[i] = pl.Run(shots, seed)
		largest = max(largest, pl.Bytes())
	}
	budget := largest * 5 / 2 // two pipelines fit, six do not
	cache := NewCacheWithBudget(budget)
	const goroutines, rounds = 4, 9
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range rounds {
				i := (g*5 + k) % len(specs)
				cached, _, err := cache.Get(specs[i])
				if err != nil {
					t.Error(err)
					return
				}
				pl := *cached
				pl.Workers = 1
				if got := pl.Run(shots, seed); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, spec %d: tally %+v, want %+v", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, _, err := cache.Get(specs[0]); err != nil {
		t.Fatal(err)
	}
	bytes, evictions := cache.Usage()
	_, misses := cache.Stats()
	if bytes > budget || evictions == 0 || misses <= len(specs) {
		t.Fatalf("cache holds %d bytes (budget %d) after %d evictions and %d builds; want at most the budget, some evictions and more than %d builds",
			bytes, budget, evictions, misses, len(specs))
	}
}
