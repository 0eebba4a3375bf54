package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"latticesim/internal/circuit"
	"latticesim/internal/service"
	"latticesim/internal/sweep"
	"latticesim/internal/worker"
)

// fleetConfig shapes the fleet workload: a coordinator-only server and
// Nodes in-process worker nodes (1 MC worker each, default poll and
// lease) over loopback HTTP. Each pass runs one cold campaign — fresh
// coordinator store and node caches — with the default shots per point
// and batch size, submitted while the nodes sit idle.
type fleetConfig struct {
	Nodes                     int
	Policies, Distances, Taus string
	Shots                     int // per point (0 = the service default, 40000)
	SetupReps                 int // fleet starts per run; setup_s is their median
}

var fleetDefault = fleetConfig{Nodes: 2, Policies: "Passive,Active,Hybrid", Distances: "3,5,7",
	Taus: "250,500,750,1000", SetupReps: 51}

// fleetInstance is a running coordinator with its nodes.
type fleetInstance struct {
	srv    *service.Server
	http   *httpServer
	caches []*sweep.BuildCache
	cancel context.CancelFunc
	nodes  sync.WaitGroup
	polls  atomic.Int64  // lease requests the coordinator answered
	ready  chan struct{} // closed once every node has polled

	mu        sync.Mutex
	unitStart map[string]time.Time // batch job ID → first unit start
}

// startFleet starts the coordinator and the nodes and returns once every
// node has registered and had its first lease poll answered, so it sits
// in its idle sleep. With stamp, a BeforeExecute hook (which returns nil)
// records when each unit starts.
func startFleet(nodes int, stamp bool) (*fleetInstance, error) {
	srv, err := service.New(service.Options{Workers: -1})
	if err != nil {
		return nil, err
	}
	f := &fleetInstance{srv: srv, ready: make(chan struct{}), unitStart: make(map[string]time.Time)}
	h := srv.Handler()
	f.http, err = serveHTTP(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/lease") && f.polls.Add(1) == int64(nodes) {
			close(f.ready)
		}
	}))
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < nodes; i++ {
		cache := sweep.NewBuildCache()
		f.caches = append(f.caches, cache)
		opts := worker.Options{Coordinator: f.http.URL, Name: fmt.Sprintf("node-%d", i), MCWorkers: 1, Cache: cache}
		if stamp {
			opts.BeforeExecute = f.stampUnit
		}
		w, err := worker.New(opts)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes.Add(1)
		go func() {
			defer f.nodes.Done()
			_ = w.Run(ctx) // returns ctx's error once stop cancels it
		}()
	}
	select {
	case <-f.ready:
		return f, nil
	case <-time.After(30 * time.Second):
		f.stop()
		return nil, fmt.Errorf("fleet: %d nodes did not register within 30s", nodes)
	}
}

func (f *fleetInstance) stampUnit(_ context.Context, g *service.LeaseGrant) error {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.unitStart[g.JobID]; !ok {
		f.unitStart[g.JobID] = now
	}
	return nil
}

// stop cancels the nodes, waits for them, then closes the coordinator.
func (f *fleetInstance) stop() {
	f.cancel()
	f.nodes.Wait()
	f.http.close()
	f.srv.Close()
}

func (c fleetConfig) job(seed uint64) service.CampaignJob {
	return service.CampaignJob{Policies: c.Policies, Distances: c.Distances, TausNs: c.Taus, Shots: c.Shots, Seed: seed}
}

func (c fleetConfig) run(plan runPlan, res *result) error {
	seed := max(sweep.DeriveSeed(plan.Seed, "e2ebench fleet")&(1<<53-1), 1)
	grid, err := sweep.ParseGridSpec(sweep.GridSpec{Policies: c.Policies, Distances: c.Distances, TausNs: c.Taus})
	if err != nil {
		return err
	}
	// The reference aggregate: the batch layer's canonical record lines
	// for the same grid, computed outside the timed passes.
	recs, err := sweep.Collect(grid, sweep.Config{Shots: c.Shots, Seed: seed, Workers: 2}, nil)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	shots := 0
	for _, r := range recs {
		line, err := r.CanonicalJSON()
		if err != nil {
			return err
		}
		want.Write(line)
		want.WriteByte('\n')
		if r.Feasible {
			shots += r.Shots
		}
	}

	ctx := context.Background()
	var requeues, steals int
	pass := func(tr *tracer, p int) (*fleetInstance, float64, error) {
		runtime.GC()
		f, err := startFleet(c.Nodes, tr != nil)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		body, err := c.campaign(ctx, f, seed, tr, fmt.Sprintf("pass-%d", p))
		wall := time.Since(t0).Seconds()
		res.attempted++
		if err != nil {
			res.opFailed(fmt.Errorf("fleet pass %d: %w", p, err))
		} else {
			res.check(bytes.Equal(body, want.Bytes()), "fleet: pass %d aggregate differs from sweep.Collect's record lines", p)
		}
		st := f.srv.Stats()
		requeues += st.Requeues
		steals += st.Steals
		return f, wall, nil
	}
	for p := 0; p < plan.Passes; p++ {
		f, wall, err := pass(nil, p)
		if err != nil {
			return err
		}
		res.wall = append(res.wall, wall)
		res.latency = append(res.latency, []float64{wall})
		res.shots = append(res.shots, float64(shots))
		res.ops = append(res.ops, 1)
		res.retained = append(res.retained, retainedMB())
		f.stop()
	}
	// Starts are timed back to back, without a collection in between:
	// each one is a fraction of a millisecond, and a collection parks the
	// threads whose wake-ups would then dominate it.
	for i := 0; i < c.SetupReps; i++ {
		start := time.Now()
		f, err := startFleet(c.Nodes, false)
		if err != nil {
			return err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
		f.stop()
	}

	if plan.TracedPasses > 0 {
		if err := c.traced(ctx, plan, grid, pass, res); err != nil {
			return err
		}
	}
	res.layers["service.requeues"] = float64(requeues)
	res.layers["service.steals"] = float64(steals)
	return nil
}

// traced runs the traced passes, reading unit timings from the
// coordinator's batch stamps and the nodes' BeforeExecute stamps, then
// times the builds of the grid's distinct specs.
func (c fleetConfig) traced(ctx context.Context, plan runPlan, grid sweep.Grid,
	pass func(*tracer, int) (*fleetInstance, float64, error), res *result) error {
	tr := plan.Tracer
	var waits, units, idle []float64
	hits, misses := 0, 0
	for p := 0; p < plan.TracedPasses; p++ {
		f, wall, err := pass(tr, p)
		if err != nil {
			return err
		}
		res.tracedWall = append(res.tracedWall, wall)
		busy := 0.0
		f.mu.Lock()
		starts := maps.Clone(f.unitStart)
		f.mu.Unlock()
		for _, cs := range f.srv.Campaigns() {
			for _, b := range cs.Batches {
				began, ok := starts[b.ID]
				if !ok || b.DoneMs == 0 {
					continue
				}
				queued, done := time.UnixMilli(b.QueuedMs), time.UnixMilli(b.DoneMs)
				trace := fmt.Sprintf("pass-%d", p)
				tr.add(trace, 0, "worker.queue_wait", queued, began)
				tr.add(trace, 0, "worker.unit", began, done)
				waits = append(waits, began.Sub(queued).Seconds())
				units = append(units, done.Sub(began).Seconds())
				busy += done.Sub(began).Seconds()
			}
		}
		idle = append(idle, 1-busy/(float64(c.Nodes)*wall))
		for _, cache := range f.caches {
			h, m := cache.Stats()
			hits += h
			misses += m
		}
		f.stop()
	}
	res.layers["worker.queue_wait_s"] = median(waits)
	res.layers["worker.queue_wait_max_s"] = quantile(waits, 1)
	res.layers["worker.unit_s"] = median(units)
	res.layers["worker.unit_max_s"] = quantile(units, 1)
	res.layers["worker.idle_frac"] = median(idle)
	res.layers["sweep.cache_misses"] = float64(misses) / float64(plan.TracedPasses)
	res.layers["sweep.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))

	pts, err := grid.Points()
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	var costs []chainCost
	for _, pt := range pts {
		spec, _, ok := pt.Resolve()
		if !ok || seen[sweep.SpecKey(spec)] {
			continue
		}
		seen[sweep.SpecKey(spec)] = true
		cost, err := buildChain(tr, "builds", "surface.MergeSpec.Build", func() (*circuit.Circuit, error) {
			b, err := spec.Build()
			if err != nil {
				return nil, err
			}
			return b.Circuit, nil
		})
		if err != nil {
			return err
		}
		costs = append(costs, cost)
	}
	setChainLayers(res, costs, sum)
	return nil
}

// campaign submits one campaign, follows it to the end and fetches the
// aggregate. Its latency, submission to aggregate bytes, is the pass's
// wall time.
func (c fleetConfig) campaign(ctx context.Context, f *fleetInstance, seed uint64, tr *tracer, traceID string) ([]byte, error) {
	cl := service.NewClient(f.http.URL)
	root := tr.begin(traceID, 0, "campaign")
	defer tr.end(root)
	id := tr.begin(traceID, root, "service.Client.SubmitCampaign")
	st, err := cl.SubmitCampaign(ctx, c.job(seed))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if !st.Terminal() {
		id = tr.begin(traceID, root, "service.Client.Watch")
		st, err = cl.Watch(ctx, st.ID, nil)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("campaign ended %s: %s", st.State, st.Error)
	}
	id = tr.begin(traceID, root, "service.Client.Result")
	body, err := cl.Result(ctx, st.Key)
	tr.end(id)
	return body, err
}
