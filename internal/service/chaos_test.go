package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"latticesim/internal/faultinject"
	"latticesim/internal/obs"
	"latticesim/internal/sweep"
)

// The chaos harness (DESIGN.md §14): each schedule is a seed-derived
// faultinject.Plan driven against a fresh server running a fixed
// workload. Whatever the faults — crashed workers, wedged workers,
// torn store writes, slow reads, canceled jobs — four invariants must
// hold:
//
//  1. every job reaches a terminal state (nothing wedges forever),
//  2. every completed job's stored bytes are byte-identical to the
//     fault-free execution (determinism survives recovery),
//  3. the queue leaks no slots (fresh capacity is fully restored once
//     the dust settles), and
//  4. once the server is closed, every job span and every attempt span
//     has exactly one start and one end event (DESIGN.md §16).
//
// A failing schedule serializes its plan to CHAOS_ARTIFACT_DIR (when
// set) so it can be replayed exactly. The schedule count is 8 under
// -short, chaosDefaultSchedules otherwise, and CHAOS_SCHEDULES
// overrides both (make chaos / make chaos-long).

const chaosDefaultSchedules = 24

func chaosScheduleCount(t *testing.T) int {
	if s := os.Getenv("CHAOS_SCHEDULES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("CHAOS_SCHEDULES=%q is not a positive integer", s)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return chaosDefaultSchedules
}

// chaosWorkload is the fixed job mix every schedule runs: several
// distinct sweep points plus a trace job, all small enough that one
// schedule completes in well under a second.
func chaosWorkload() []JobSpec {
	specs := make([]JobSpec, 0, 6)
	for i := 0; i < 5; i++ {
		specs = append(specs, sweepSpec(600+float64(i)*80, 128, uint64(i+1)))
	}
	specs = append(specs, traceSpec(32, 3))
	return specs
}

var (
	chaosOnce   sync.Once
	chaosCache  *sweep.BuildCache // shared so schedules skip rebuilds
	chaosBase   map[string][]byte // content key → fault-free bytes
	chaosSpecOf map[string]JobSpec
	chaosSetup  error
)

// chaosBaseline computes the fault-free result bytes for the workload,
// once per test binary.
func chaosBaseline(t *testing.T) {
	t.Helper()
	chaosOnce.Do(func() {
		chaosCache = sweep.NewBuildCache()
		chaosBase = make(map[string][]byte)
		chaosSpecOf = make(map[string]JobSpec)
		srv, err := New(Options{Workers: 2, MCWorkers: 1, Cache: chaosCache})
		if err != nil {
			chaosSetup = err
			return
		}
		defer srv.Close()
		for _, spec := range chaosWorkload() {
			st, err := srv.Submit(spec)
			if err != nil {
				chaosSetup = fmt.Errorf("baseline submit: %w", err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			fin, ok, err := srv.Watch(ctx, st.ID, nil)
			cancel()
			if !ok || err != nil || fin.State != StateDone {
				chaosSetup = fmt.Errorf("baseline job %s: ok=%v err=%v state=%s %s",
					st.ID, ok, err, fin.State, fin.Error)
				return
			}
			data, ok, err := srv.Store().Get(fin.Key)
			if !ok || err != nil {
				chaosSetup = fmt.Errorf("baseline result %s: ok=%v err=%v", fin.Key, ok, err)
				return
			}
			chaosBase[fin.Key] = data
			chaosSpecOf[fin.Key] = spec
		}
	})
	if chaosSetup != nil {
		t.Fatalf("chaos baseline: %v", chaosSetup)
	}
}

// chaosPlan derives one schedule's fault plan from its seed. Stalls
// nominally hold for a minute but are reclaimed by lease expiry, so
// they exercise the watchdog, not the clock.
func chaosPlan(seed uint64) faultinject.Plan {
	return faultinject.Plan{
		Seed:          seed,
		PanicRate:     0.15,
		StallRate:     0.10,
		StallForMs:    60_000,
		TornWriteRate: 0.20,
		SlowGetRate:   0.10,
		SlowGetForMs:  1,
	}
}

// saveFailingPlan writes the schedule's plan (and its injected-event
// log) where CI can pick it up as an artifact.
func saveFailingPlan(t *testing.T, inj *faultinject.Injector, seed uint64) {
	t.Helper()
	t.Logf("failing fault plan: %s", inj.PlanJSON())
	for _, ev := range inj.Events() {
		t.Logf("injected: %s %s", ev.Site, ev.ID)
	}
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-plan-seed%d.json", seed))
	if err := os.WriteFile(path, inj.PlanJSON(), 0o644); err != nil {
		t.Logf("writing %s: %v", path, err)
		return
	}
	t.Logf("fault plan saved to %s (replay with CHAOS_SCHEDULES=1 and this seed)", path)
}

// waitAllTerminal polls until every job on the server is terminal.
func waitAllTerminal(t *testing.T, srv *Server, timeout time.Duration) []JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		jobs := srv.Jobs()
		allDone := true
		for _, st := range jobs {
			if !st.Terminal() {
				allDone = false
				break
			}
		}
		if allDone {
			return jobs
		}
		if time.Now().After(deadline) {
			for _, st := range jobs {
				if !st.Terminal() {
					t.Errorf("job %s wedged in state %s (attempt %d)", st.ID, st.State, st.Attempt)
				}
			}
			t.Fatalf("jobs did not all reach a terminal state within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// verifyDoneBytes checks a completed job's stored bytes against the
// fault-free baseline. A miss means a torn write was caught by
// verify-on-read; the contract is heal-by-resubmission, so the test
// resubmits (bounded) until the bytes are back, then compares.
func verifyDoneBytes(t *testing.T, srv *Server, st JobStatus) {
	t.Helper()
	want, ok := chaosBase[st.Key]
	if !ok {
		t.Errorf("job %s finished under unknown content key %s", st.ID, st.Key)
		return
	}
	for heal := 0; ; heal++ {
		data, ok, err := srv.Store().Get(st.Key)
		if err != nil {
			t.Errorf("store.Get(%s): %v", st.Key, err)
			return
		}
		if ok {
			if !bytes.Equal(data, want) {
				t.Errorf("job %s: result bytes differ from the fault-free run", st.ID)
			}
			return
		}
		if heal >= 8 {
			t.Errorf("job %s: result unrecoverable after %d healing resubmissions", st.ID, heal)
			return
		}
		re, err := srv.Submit(chaosSpecOf[st.Key])
		if err != nil {
			t.Errorf("healing resubmit for %s: %v", st.Key, err)
			return
		}
		if !re.Terminal() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_, _, _ = srv.Watch(ctx, re.ID, nil)
			cancel()
		}
	}
}

// TestChaosSchedules is the main randomized suite: N seed-derived fault
// schedules, each against a fresh server, checking the four invariants
// above after every run.
func TestChaosSchedules(t *testing.T) {
	chaosBaseline(t)
	n := chaosScheduleCount(t)
	startGoroutines := runtime.NumGoroutine()

	for i := 0; i < n; i++ {
		seed := uint64(1000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faultinject.New(chaosPlan(seed))
			defer func() {
				if t.Failed() {
					saveFailingPlan(t, inj, seed)
				}
			}()
			var spans lockedBuffer
			srv, err := New(Options{
				Workers:     3,
				MCWorkers:   1,
				Lease:       250 * time.Millisecond,
				MaxAttempts: 6,
				Cache:       chaosCache,
				Spans:       obs.NewSpanWriter(&spans),
				Hooks: &Hooks{
					BeforeExec: inj.BeforeExec,
					StorePut:   inj.StorePut,
					StoreGet:   inj.StoreGet,
				},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()

			// Submit the workload, with two duplicate submissions riding
			// along to chase the coalescing paths under faults.
			specs := chaosWorkload()
			specs = append(specs, specs[0], specs[2])
			ids := make([]string, 0, len(specs))
			for _, spec := range specs {
				st, err := srv.Submit(spec)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				ids = append(ids, st.ID)
			}
			// Seed-derived cancellation: about half the schedules cancel
			// one job at a random point in its life.
			rng := rand.New(rand.NewPCG(seed, 0x6368616f73))
			if rng.Float64() < 0.5 {
				time.Sleep(time.Duration(rng.IntN(30)) * time.Millisecond)
				srv.Cancel(ids[rng.IntN(len(ids))])
			}

			jobs := waitAllTerminal(t, srv, 60*time.Second)

			// Invariant 2: completed results are byte-identical to the
			// fault-free run (healing misses by resubmission).
			for _, st := range jobs {
				switch st.State {
				case StateDone:
					verifyDoneBytes(t, srv, st)
				case StateFailed:
					// Only attempt exhaustion may fail a job here (no
					// timeouts are configured in the plan).
					if st.StopReason != StopReasonMaxAttempts {
						t.Errorf("job %s failed with stop reason %q", st.ID, st.StopReason)
					}
					if len(st.Failures) == 0 {
						t.Errorf("job %s failed without an attempt history", st.ID)
					}
				case StateCanceled:
					if st.StopReason != StopReasonCanceled {
						t.Errorf("job %s canceled with stop reason %q", st.ID, st.StopReason)
					}
				default:
					t.Errorf("job %s in unexpected terminal state %s", st.ID, st.State)
				}
			}

			// Healing resubmissions above may have added jobs; wait for
			// them before auditing the queue.
			waitAllTerminal(t, srv, 60*time.Second)

			// Invariant 1+3: nothing queued or running remains, and no
			// fresh queue slot leaked.
			stats := srv.Stats()
			if stats.Queued != 0 || stats.Running != 0 {
				t.Errorf("queue not drained: %d queued, %d running", stats.Queued, stats.Running)
			}
			srv.mu.Lock()
			fresh := srv.freshQueuedLocked()
			srv.mu.Unlock()
			if fresh != 0 {
				t.Errorf("queue leaked %d fresh slots", fresh)
			}
			// Determinism means late completions can never disagree with
			// the store: integrity checks may run, failures may not.
			if stats.IntegrityFailures != 0 {
				t.Errorf("%d integrity failures — determinism broke under faults", stats.IntegrityFailures)
			}

			// Invariant 4: every job and attempt span starts once and ends
			// once, whichever transitions ended it.
			srv.Close()
			phases := map[string]string{}
			for _, ev := range spanEvents(t, spans.String()) {
				if ev.Name == "job" || ev.Name == "attempt" {
					phases[ev.Span] += " " + ev.Phase
				}
			}
			for span, got := range phases {
				if got != " start end" {
					t.Errorf("span %s has events%s, want one start and one end", span, got)
				}
			}
		})
	}

	// No schedule may leak goroutines (wedged workers, undrained
	// watchers). Give async teardown a moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= startGoroutines+8 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d at start, %d after; stacks:\n%s",
				startGoroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosHTTPTransport aims the connection-dropper at the HTTP layer:
// a resilient client must complete the full submit→watch→result round
// trip with fault-free bytes even when a quarter of all responses die
// partway, relying on idempotent re-submission and watch reconnects.
func TestChaosHTTPTransport(t *testing.T) {
	chaosBaseline(t)
	seeds := 3
	if !testing.Short() {
		seeds = 6
	}
	for i := 0; i < seeds; i++ {
		seed := uint64(9000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faultinject.New(faultinject.Plan{
				Seed:         seed,
				DropRate:     0.25,
				DropAfterMax: 256,
			})
			defer func() {
				if t.Failed() {
					saveFailingPlan(t, inj, seed)
				}
			}()
			srv, err := New(Options{Workers: 2, MCWorkers: 1, Cache: chaosCache})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()
			hs := httptest.NewServer(inj.Middleware(srv.Handler()))
			defer hs.Close()

			client := NewClient(hs.URL)
			client.Retry = &RetryPolicy{
				MaxRetries: 10,
				BaseDelay:  2 * time.Millisecond,
				MaxDelay:   20 * time.Millisecond,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for _, spec := range chaosWorkload()[:3] {
				st, data, err := client.Run(ctx, spec, nil)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if st.State != StateDone {
					t.Fatalf("job %s finished %s: %s", st.ID, st.State, st.Error)
				}
				if !bytes.Equal(data, chaosBase[st.Key]) {
					t.Fatalf("job %s: bytes fetched over a lossy transport differ", st.ID)
				}
			}
		})
	}
}
