package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"latticesim/internal/service"
	"latticesim/internal/sweep"
)

// serveConfig shapes the serve workload: an in-process service.Server
// on its default local pool (2 queue workers × 1 MC worker) behind
// loopback HTTP with a disk store, driven in a closed loop by clients
// with no think time. Jobs are small distinct d=3 sweep points; every
// RepeatEvery-th submission of a client repeats one of its earlier
// specs, so store reads sit beside store writes.
type serveConfig struct {
	Clients     int
	JobsPerPass int // across all clients
	Shots       int // Monte Carlo shots per job
	RepeatEvery int
	CheckEvery  int // every CheckEvery-th fresh job is recomputed with service.ExecuteSpec
	SetupReps   int // server starts per run; setup_s is their median
	// StoreRoot is the tmpfs directory the run's disk stores are made
	// under. A disk that discards on unlink makes removing thousands of
	// fsynced store files take minutes and would make the workload
	// measure the disk; on tmpfs the whole disk-store code still runs
	// (temp file, checksum sidecar, rename, verify-on-read). When it is
	// unusable the run falls back to the memory store and says so.
	StoreRoot string
}

var serveDefault = serveConfig{Clients: 2, JobsPerPass: 1024, Shots: 4096, RepeatEvery: 4, CheckEvery: 64, SetupReps: 11, StoreRoot: "/dev/shm"}

// The jobs' policies and slacks: 8 distinct specs, told apart by seed.
var (
	servePolicies = [...]string{"Passive", "Active"}
	serveTaus     = [...]float64{250, 500, 750, 1000}
)

// httpServer serves a handler on a loopback port.
type httpServer struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener and every connection and waits for Serve to
// return.
func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// serveInstance is one running server.
type serveInstance struct {
	srv  *service.Server
	http *httpServer
}

func startServe(dir string) (*serveInstance, error) {
	srv, err := service.New(service.Options{DataDir: dir, MCWorkers: 1})
	if err != nil {
		return nil, err
	}
	hs, err := serveHTTP(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &serveInstance{srv: srv, http: hs}, nil
}

// warm runs one job per distinct spec through the API, so the server's
// build cache is full before the timed passes and set-up shows the
// build cost.
func (c serveConfig) warm(inst *serveInstance) error {
	cl := service.NewClient(inst.http.URL)
	for _, pol := range servePolicies {
		for _, tau := range serveTaus {
			spec := service.JobSpec{Type: "sweep", Sweep: &service.SweepJob{Policy: pol, D: 3, TauNs: tau, Shots: c.Shots, Seed: 1}}
			st, _, err := cl.Run(context.Background(), spec, nil)
			if err != nil {
				return err
			}
			if st.State != service.StateDone {
				return fmt.Errorf("serve: warm-up job ended %s: %s", st.State, st.Error)
			}
		}
	}
	return nil
}

func (s *serveInstance) stop() {
	s.http.close()
	s.srv.Close()
}

// serveClient is one closed-loop client and the jobs it has completed.
type serveClient struct {
	index int
	api   *service.Client
	rng   *rand.Rand
	seed  uint64
	subs  int
	fresh []freshJob
}

type freshJob struct {
	spec service.JobSpec
	body []byte
}

// clientRun is what one client saw during one pass: its own counters
// and latencies (the client goroutines cannot share the run's result),
// plus its submissions, store hits and fresh shots.
type clientRun struct {
	result
	jobLatency               []float64
	submissions, hits, shots int
}

func (c serveConfig) run(plan runPlan, res *result) error {
	root := ""
	if c.StoreRoot != "" {
		if d, err := os.MkdirTemp(c.StoreRoot, "e2ebench-serve-"); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v; falling back to the memory store\n", err)
		} else {
			root = d
			defer os.RemoveAll(d)
		}
	}
	// Set-up is a server start and a warm-up of its build cache, measured
	// on a quiet process: the previous server is stopped and the heap
	// collected first. The last server serves the run.
	var inst *serveInstance
	for i := 0; i < c.SetupReps; i++ {
		if inst != nil {
			inst.stop()
		}
		dir := ""
		if root != "" {
			dir = filepath.Join(root, fmt.Sprintf("store-%d", i))
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = startServe(dir); err != nil {
			return err
		}
		if err := c.warm(inst); err != nil {
			inst.stop()
			return err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	defer inst.stop()

	clients := make([]*serveClient, c.Clients)
	for i := range clients {
		cs := sweep.DeriveSeed(plan.Seed, fmt.Sprintf("e2ebench serve client=%d", i))
		clients[i] = &serveClient{index: i, api: service.NewClient(inst.http.URL),
			rng: rand.New(rand.NewPCG(cs, cs^0x9e3779b97f4a7c15)), seed: plan.Seed}
		clients[i].api.HTTPClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	}
	ctx := context.Background()
	for p := 0; p < plan.Passes; p++ {
		wall, runs := c.pass(ctx, clients, nil, p)
		shots := 0
		var lat []float64
		for _, r := range runs {
			lat = append(lat, r.jobLatency...)
			shots += r.shots
			fold(res, r)
		}
		res.latency = append(res.latency, lat)
		res.wall = append(res.wall, wall)
		res.shots = append(res.shots, float64(shots))
		res.ops = append(res.ops, float64(c.JobsPerPass/c.Clients*c.Clients))
		res.retained = append(res.retained, retainedMB())
	}

	if plan.TracedPasses > 0 {
		subs, hits := 0, 0
		for p := 0; p < plan.TracedPasses; p++ {
			wall, runs := c.pass(ctx, clients, plan.Tracer, p)
			res.tracedWall = append(res.tracedWall, wall)
			for _, r := range runs {
				fold(res, r)
				subs += r.submissions
				hits += r.hits
			}
		}
		tr := plan.Tracer
		for _, l := range []struct{ layer, span string }{
			{"service.submit", "service.Client.Submit"},
			{"service.queue_wait", "service.queue_wait"},
			{"service.execute", "service.execute"},
			{"service.fetch", "service.Client.Result"},
		} {
			d := tr.durations(l.span)
			_, t := tail(d)
			res.layers[l.layer+"_s"] = median(d)
			res.layers[l.layer+"_tail_s"] = t
		}
		res.layers["service.store_hit_ratio"] = float64(hits) / float64(max(subs, 1))
	}
	st := inst.srv.Stats()
	res.layers["service.requeues"] = float64(st.Requeues)
	res.layers["service.steals"] = float64(st.Steals)

	// A sample of fresh jobs must equal an in-process execution.
	cache := sweep.NewBuildCache()
	for _, cl := range clients {
		for k := 0; k < len(cl.fresh); k += c.CheckEvery {
			j := cl.fresh[k]
			want, err := service.ExecuteSpec(ctx, cache, j.spec, 1, nil)
			res.check(err == nil && bytes.Equal(want, j.body), "serve: client %d fresh job %d differs from service.ExecuteSpec (%v)", cl.index, k, err)
		}
	}
	return nil
}

// fold adds one client's pass outcome to the run's counters.
func fold(res *result, r clientRun) {
	res.attempted += r.attempted
	res.failed += r.failed
	res.checkFailures = append(res.checkFailures, r.checkFailures...)
}

// pass runs JobsPerPass jobs split over the clients, concurrently, and
// returns its wall time and each client's outcome.
func (c serveConfig) pass(ctx context.Context, clients []*serveClient, tr *tracer, pass int) (float64, []clientRun) {
	runs := make([]clientRun, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < c.JobsPerPass/len(clients); j++ {
				c.job(ctx, cl, &runs[i], tr, fmt.Sprintf("pass-%d/client-%d/job-%d", pass, i, j))
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds(), runs
}

// next returns the client's next spec: a repeat of one of its completed
// fresh jobs every RepeatEvery-th submission, else a new job whose seed
// derives from the workload seed.
func (c serveConfig) next(cl *serveClient) (service.JobSpec, int) {
	cl.subs++
	if cl.subs%c.RepeatEvery == 0 && len(cl.fresh) > 0 {
		k := cl.rng.IntN(len(cl.fresh))
		return cl.fresh[k].spec, k
	}
	pol := servePolicies[cl.rng.IntN(len(servePolicies))]
	tau := serveTaus[cl.rng.IntN(len(serveTaus))]
	seed := sweep.DeriveSeed(cl.seed, fmt.Sprintf("e2ebench serve client=%d job=%d", cl.index, cl.subs)) & (1<<53 - 1)
	return service.JobSpec{Type: "sweep", Sweep: &service.SweepJob{
		Policy: pol, D: 3, TauNs: tau, Shots: c.Shots, Seed: max(seed, 1),
	}}, -1
}

// job runs one submit→watch→fetch round trip. Its latency runs from the
// submission to the result bytes. Traced, every client call is a span,
// and a running snapshot on the watch stream, when one arrives before
// the terminal one, splits the wait into queue wait and execution.
func (c serveConfig) job(ctx context.Context, cl *serveClient, r *clientRun, tr *tracer, traceID string) {
	spec, repeatOf := c.next(cl)
	r.attempted++
	r.submissions++
	root := tr.begin(traceID, 0, "job")
	defer tr.end(root)
	start := time.Now()
	id := tr.begin(traceID, root, "service.Client.Submit")
	st, err := cl.api.Submit(ctx, spec)
	tr.end(id)
	submitted := time.Now()
	if err != nil {
		r.opFailed(err)
		return
	}
	if st.CacheHit {
		r.hits++
	}
	if !st.Terminal() {
		var observe func(service.JobStatus)
		var running, done time.Time
		if tr != nil {
			observe = func(s service.JobStatus) {
				now := time.Now()
				if running.IsZero() && s.State == service.StateRunning {
					running = now
				}
				if s.Terminal() {
					done = now
				}
			}
		}
		wid := tr.begin(traceID, root, "service.Client.Watch")
		st, err = cl.api.Watch(ctx, st.ID, observe)
		tr.end(wid)
		if tr != nil && !running.IsZero() && !done.IsZero() {
			tr.add(traceID, wid, "service.queue_wait", submitted, running)
			tr.add(traceID, wid, "service.execute", running, done)
		}
		if err != nil {
			r.opFailed(err)
			return
		}
	}
	if st.State != service.StateDone {
		r.opFailed(fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error))
		return
	}
	id = tr.begin(traceID, root, "service.Client.Result")
	body, err := cl.api.Result(ctx, st.Key)
	tr.end(id)
	if err != nil {
		r.opFailed(err)
		return
	}
	if tr == nil {
		r.jobLatency = append(r.jobLatency, time.Since(start).Seconds())
	}
	if repeatOf >= 0 {
		r.check(bytes.Equal(body, cl.fresh[repeatOf].body), "serve: client %d repeat of fresh job %d returned different bytes", cl.index, repeatOf)
		return
	}
	r.shots += c.Shots
	cl.fresh = append(cl.fresh, freshJob{spec: spec, body: body})
}
