// Package diffharness is the shared differential correctness harness for
// the simulator's execution paths (DESIGN.md §13). Every optimization of
// the hot loop — plan compilation, sparse extraction, the predecoder
// stage — is required to be bit-identical to the interpreted reference,
// and this package is where that requirement is enforced: it generates
// randomized circuits, runs the same schedule through every path, and
// reports the *first* divergence precisely (the diverging batch, word,
// shot lane and the compiled-plan instruction that computed it) so a
// regression points at the instruction to debug rather than at a failed
// DeepEqual.
//
// Two comparison layers match the two layers of the pipeline:
//
//   - CompareSamplers checks the frame layer: the interpreted and
//     compiled samplers must emit byte-equal Det/Obs words for the same
//     RNG seed over an arbitrary batch schedule.
//   - ComparePipelines checks the Monte Carlo layer end to end: both
//     mc.Path execution paths must return identical LERResult tallies for
//     every (seed, workers) combination, and RunFrom increments covering
//     the budget must merge to exactly the single-call result.
//
// The harness is used from the frame and mc test suites and from CI's
// randomized differential job (make diff / make diff-long).
package diffharness

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"latticesim/internal/circuit"
	"latticesim/internal/frame"
	"latticesim/internal/mc"
	"latticesim/internal/stats"
)

// ArtifactEnv names the environment variable that, when set to a
// directory, makes the harness also write each divergence report (plus
// the offending circuit's text form) to a file there. CI sets it and
// uploads the directory on failure, so a red randomized run ships its
// repro with it.
const ArtifactEnv = "DIFF_ARTIFACT_DIR"

// fail reports a divergence: the message fails the test, and when
// ArtifactEnv is set it is also written — with the circuit repro — to
// <dir>/<test-name>.txt.
func fail(t testing.TB, c *circuit.Circuit, format string, args ...any) {
	t.Helper()
	msg := fmt.Sprintf(format, args...)
	if dir := os.Getenv(ArtifactEnv); dir != "" {
		name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name()) + ".txt"
		body := msg + "\n"
		if c != nil {
			body += "\ncircuit repro:\n" + c.Text()
		}
		if err := os.MkdirAll(dir, 0o755); err == nil {
			_ = os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
		}
	}
	t.Fatal(msg)
}

// RandomCircuit generates a valid random stabilizer circuit exercising
// every op type, with runs of repeated op types so compilation actually
// fuses, plus detectors/observables over random measurement records. The
// output is deterministic in rng.
func RandomCircuit(rng *rand.Rand, nq int32, ops int) *circuit.Circuit {
	c := circuit.New()
	all := make([]int32, nq)
	for i := range all {
		all[i] = int32(i)
	}
	c.Reset(all...)
	var recs []int32

	someQubits := func() []int32 {
		n := 1 + rng.IntN(int(nq))
		out := make([]int32, 0, n)
		for _, q := range rng.Perm(int(nq))[:n] {
			out = append(out, int32(q))
		}
		return out
	}
	somePairs := func() []int32 {
		perm := rng.Perm(int(nq))
		n := 1 + rng.IntN(int(nq)/2)
		out := make([]int32, 0, 2*n)
		for i := 0; i < n; i++ {
			out = append(out, int32(perm[2*i]), int32(perm[2*i+1]))
		}
		return out
	}
	someP := func() float64 {
		switch rng.IntN(8) {
		case 0:
			return 1.0 // deterministic channel
		case 1:
			return 1e-4
		default:
			return 0.02 + 0.3*rng.Float64()
		}
	}

	kind := rng.IntN(14)
	for i := 0; i < ops; i++ {
		// Repeat the previous op type half the time so adjacent same-type
		// runs (the fusion case) are common.
		if rng.IntN(2) == 0 {
			kind = rng.IntN(14)
		}
		switch kind {
		case 0:
			c.H(someQubits()...)
		case 1:
			c.S(someQubits()...)
		case 2:
			c.X(someQubits()...)
		case 3:
			c.Z(someQubits()...)
		case 4:
			c.CNOT(somePairs()...)
		case 5:
			c.Reset(someQubits()...)
		case 6:
			recs = append(recs, c.Measure(someQubits()...)...)
		case 7:
			recs = append(recs, c.MeasureReset(someQubits()...)...)
		case 8:
			c.XError(someP(), someQubits()...)
		case 9:
			c.ZError(someP(), someQubits()...)
		case 10:
			c.Depolarize1(someP(), someQubits()...)
		case 11:
			c.Depolarize2(someP(), somePairs()...)
		case 12:
			px, py, pz := someP()/3, someP()/3, someP()/3
			c.PauliChannel1(px, py, pz, someQubits()...)
		case 13:
			switch rng.IntN(3) {
			case 0:
				c.Tick()
			case 1:
				c.QubitCoords(int32(rng.IntN(int(nq))), rng.Float64(), rng.Float64())
			case 2:
				if len(recs) > 0 {
					k := 1 + rng.IntN(3)
					sel := make([]int32, 0, k)
					for j := 0; j < k; j++ {
						sel = append(sel, recs[rng.IntN(len(recs))])
					}
					if rng.IntN(2) == 0 {
						c.Detector([]float64{0, 0, float64(i)}, sel...)
					} else {
						c.Observable(rng.IntN(3), sel...)
					}
				}
			}
		}
	}
	// Guarantee at least one measurement, detector and observable.
	recs = append(recs, c.Measure(all...)...)
	c.Detector(nil, recs[len(recs)-1])
	c.Observable(0, recs[len(recs)-1])
	return c
}

// Schedule is a batch schedule: the shot count of each successive batch
// (each in 1..64). The same schedule drives every compared path, so RNG
// consumption lines up batch for batch.
type Schedule []int

// DefaultSchedule exercises full batches, a partial tail, a single-shot
// batch and a 63-shot batch — the boundary cases of the 64-wide word.
var DefaultSchedule = Schedule{64, 64, 17, 1, 63}

// Words is the sampled output of one path over a schedule: Det[i] and
// Obs[i] are copies of batch i's detector and observable words.
type Words struct {
	Det [][]uint64
	Obs [][]uint64
}

// SamplerPath names one frame-layer sampling implementation.
type SamplerPath int

const (
	// SamplerInterpreted walks circuit.Ops directly: the reference.
	SamplerInterpreted SamplerPath = iota
	// SamplerCompiled executes the compiled plan one word at a time.
	SamplerCompiled
)

// String returns the path's name for divergence reports.
func (sp SamplerPath) String() string {
	switch sp {
	case SamplerInterpreted:
		return "interpreted"
	case SamplerCompiled:
		return "compiled"
	}
	return fmt.Sprintf("SamplerPath(%d)", int(sp))
}

// SamplerPaths lists every frame-layer path the harness compares.
var SamplerPaths = []SamplerPath{SamplerInterpreted, SamplerCompiled}

// SampleWords runs the schedule through one sampling path from the given
// seed and returns copies of every batch's words.
func SampleWords(path SamplerPath, c *circuit.Circuit, plan *frame.Plan, seed uint64, sched Schedule) Words {
	rng := stats.NewRand(seed)
	var s *frame.Sampler
	switch path {
	case SamplerInterpreted:
		s = frame.NewSampler(c)
	case SamplerCompiled:
		s = plan.NewSampler()
	default:
		panic("diffharness: unknown sampler path")
	}
	var w Words
	for _, n := range sched {
		b := s.SampleBatch(rng, n)
		w.Det = append(w.Det, append([]uint64(nil), b.Det...))
		w.Obs = append(w.Obs, append([]uint64(nil), b.Obs...))
	}
	return w
}

// CompareSamplers runs the schedule through every sampling path and fails
// the test at the first diverging word, naming the diverging path pair,
// batch, word kind and index, the compiled-plan instruction that computes
// that word, and the mask of diverging shot lanes.
func CompareSamplers(t testing.TB, c *circuit.Circuit, seed uint64, sched Schedule) {
	t.Helper()
	plan := frame.Compile(c)
	ref := SampleWords(SamplerInterpreted, c, plan, seed, sched)
	for _, path := range SamplerPaths[1:] {
		got := SampleWords(path, c, plan, seed, sched)
		if d := firstWordDivergence(plan, ref, got, sched); d != "" {
			fail(t, c, "seed %d: %s sampler diverges from interpreted: %s", seed, path, d)
		}
	}
}

// firstWordDivergence locates the first word where got differs from ref
// and formats the report, or returns "" when the outputs are byte-equal.
func firstWordDivergence(plan *frame.Plan, ref, got Words, sched Schedule) string {
	for b := range ref.Det {
		if b >= len(got.Det) {
			return fmt.Sprintf("only %d of %d batches produced", len(got.Det), len(ref.Det))
		}
		for d, w := range ref.Det[b] {
			if g := got.Det[b][d]; g != w {
				return fmt.Sprintf(
					"batch %d (%d shots): detector word %d (plan instruction %d): got %#016x want %#016x (diverging shots %#x)",
					b, sched[b], d, plan.DetectorInstr(d), g, w, g^w)
			}
		}
		for o, w := range ref.Obs[b] {
			if g := got.Obs[b][o]; g != w {
				return fmt.Sprintf(
					"batch %d (%d shots): observable word %d (plan instruction %d): got %#016x want %#016x (diverging shots %#x)",
					b, sched[b], o, plan.ObservableInstr(o), g, w, g^w)
			}
		}
	}
	return ""
}

// PipelinePaths lists every Monte Carlo execution path, reference first.
var PipelinePaths = []mc.Path{mc.PathInterpreted, mc.PathAuto}

// PathName names an mc execution path for divergence reports.
func PathName(p mc.Path) string {
	switch p {
	case mc.PathAuto:
		return "auto (compiled+predecoder)"
	case mc.PathInterpreted:
		return "interpreted"
	}
	return fmt.Sprintf("Path(%d)", int(p))
}

// onPath returns a copy of the pipeline forced onto the given path.
// PathInterpreted also drops the compiled plan, so a regression in plan
// sharing cannot mask itself.
func onPath(pl *mc.Pipeline, path mc.Path) *mc.Pipeline {
	q := *pl
	q.Path = path
	if path == mc.PathInterpreted {
		q.Plan = nil
	}
	return &q
}

// ComparePipelines runs the shot budget through every mc execution path
// for each worker count, asserting identical LERResult tallies against
// the interpreted reference; and for each increment schedule (a sorted
// list of interior cut points, multiples of mc.ShardShots), asserts that
// RunFrom increments covering [0, shots) merge to exactly the reference
// result on every path. Divergences name the path, worker count and
// increment schedule.
func ComparePipelines(t testing.TB, pl *mc.Pipeline, shots int, seed uint64, workers []int, increments [][]int) {
	t.Helper()
	ref := onPath(pl, mc.PathInterpreted)
	ref.Workers = 1
	want := ref.Run(shots, seed)
	for _, path := range PipelinePaths {
		q := onPath(pl, path)
		for _, w := range workers {
			q.Workers = w
			if got := q.Run(shots, seed); !reflect.DeepEqual(got, want) {
				fail(t, pl.Circuit, "seed %d: path %s workers=%d: Run %+v != interpreted reference %+v",
					seed, PathName(path), w, got, want)
			}
			for _, cuts := range increments {
				got := mc.LERResult{}
				from := 0
				for _, cut := range append(append([]int(nil), cuts...), shots) {
					got.Merge(q.RunFrom(from, cut, seed))
					from = cut
				}
				if !reflect.DeepEqual(got, want) {
					fail(t, pl.Circuit, "seed %d: path %s workers=%d increments %v: merged RunFrom %+v != reference %+v",
						seed, PathName(path), w, cuts, got, want)
				}
			}
		}
	}
}
