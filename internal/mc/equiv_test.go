package mc

// Equivalence tests for the entry points the differential harness does
// not reach: RunProfile, RoundWeights, custom-decoder runs and
// hand-built pipelines must return exactly the same values on the
// default path as on the interpreted dense path, for fixed (circuit,
// shots, seed, workers). The Run/RunFrom two-path equivalence lives in
// diff_test.go (external package, via internal/testutil/diffharness).

import (
	"reflect"
	"testing"

	"latticesim/internal/decoder"
	"latticesim/internal/dem"
	"latticesim/internal/hardware"
	"latticesim/internal/obs"
	"latticesim/internal/surface"
)

// interpretedClone returns a copy of the pipeline forced onto the
// uncompiled dense path.
func interpretedClone(p *Pipeline) *Pipeline {
	q := *p
	q.Plan = nil
	q.Path = PathInterpreted
	return &q
}

func TestCompiledPipelineMatchesInterpreted(t *testing.T) {
	const shots, seed = 10000, 42
	for _, pp := range []float64{1e-3, 1e-4} {
		res, err := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.IBM(), P: pp}.Build()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Plan == nil {
			t.Fatal("NewPipeline must carry a compiled plan")
		}
		ip := interpretedClone(pl)
		for _, workers := range []int{1, 4} {
			pl.Workers, ip.Workers = workers, workers
			if c, i := pl.RunProfile(shots, seed, surface.ObsJoint), ip.RunProfile(shots, seed, surface.ObsJoint); !reflect.DeepEqual(c, i) {
				t.Fatalf("p=%g workers=%d: RunProfile diverges between compiled and interpreted paths", pp, workers)
			}
			if c, i := pl.RoundWeights(shots, seed), ip.RoundWeights(shots, seed); !reflect.DeepEqual(c, i) {
				t.Fatalf("p=%g workers=%d: RoundWeights diverges between compiled and interpreted paths", pp, workers)
			}
		}
	}
}

// TestCompiledPipelineMatchesInterpretedHierarchical runs the same
// equivalence through RunWithDecoders with a hierarchical decoder — a
// decoder that does NOT qualify for the zero-syndrome fast path — so the
// general per-shot loop is exercised on both paths, and LUT forks are
// exercised across workers.
func TestCompiledPipelineMatchesInterpretedHierarchical(t *testing.T) {
	const shots, seed = 6000, 9
	res, err := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	ip := interpretedClone(pl)
	lut := decoder.BuildLUT(dem.FromCircuit(pl.Circuit), 1<<16, 8)
	newDec := func() decoder.Decoder {
		return &decoder.Hierarchical{LUT: lut.Fork(), Slow: decoder.NewUnionFind(pl.Graph), Latency: decoder.DefaultLatencyModel(3)}
	}
	pl.Workers, ip.Workers = 4, 4
	c := pl.RunWithDecoders(newDec, shots, seed)
	i := ip.RunWithDecoders(newDec, shots, seed)
	if !reflect.DeepEqual(c, i) {
		t.Fatalf("RunWithDecoders(hierarchical): compiled %+v != interpreted %+v", c, i)
	}
}

// TestHandBuiltPipelineCompilesOnDemand: pipelines assembled by hand
// (nil Plan) still run the compiled path, identically.
func TestHandBuiltPipelineCompilesOnDemand(t *testing.T) {
	const shots, seed = 5000, 3
	pl := buildTestPipeline(t, 3)
	bare := &Pipeline{Circuit: pl.Circuit, Graph: pl.Graph} // no Plan
	if got, want := bare.Run(shots, seed), pl.Run(shots, seed); !reflect.DeepEqual(got, want) {
		t.Fatalf("nil-Plan pipeline %+v != compiled pipeline %+v", got, want)
	}
}

// TestRunPredecodesExactlyNonEmptySyndromes pins the default path's
// decode stage. The predecoder is exact, so no tally notices if it goes
// missing; its metric counters do. Run must send every non-empty
// syndrome, and only those, through the predecoder, and the predecoder
// must resolve some but not all of them. The interpreted path and a
// hand-built pipeline (no predecoder tables) decode with bare union-find
// and must send none.
func TestRunPredecodesExactlyNonEmptySyndromes(t *testing.T) {
	const seed = 7
	shots := 3*ShardShots + 100
	pl := buildTestPipeline(t, 3)
	nonEmpty := int64(shots - pl.RunProfile(shots, seed, surface.ObsJoint)[0].Shots)
	predecoded := func(q *Pipeline) (decoded, hits int64) {
		reg := obs.NewRegistry()
		q.Metrics = reg
		if got := q.Run(shots, seed); got.Shots != shots {
			t.Fatalf("Run tallied %d of %d shots", got.Shots, shots)
		}
		return reg.Counter("latticesim_predecoder_shots_total", "").Value(),
			reg.Counter("latticesim_predecoder_hits_total", "").Value()
	}
	for _, workers := range []int{1, 3} {
		q := *pl
		q.Workers = workers
		decoded, hits := predecoded(&q)
		if decoded != nonEmpty {
			t.Fatalf("workers=%d: predecoder saw %d shots, want the %d non-empty syndromes of %d", workers, decoded, nonEmpty, shots)
		}
		if hits <= 0 || hits >= decoded {
			t.Fatalf("workers=%d: predecoder resolved %d of %d syndromes, want some but not all", workers, hits, decoded)
		}
	}
	for name, q := range map[string]*Pipeline{
		"interpreted": interpretedClone(pl),
		"hand-built":  {Circuit: pl.Circuit, Graph: pl.Graph},
	} {
		if decoded, _ := predecoded(q); decoded != 0 {
			t.Fatalf("%s pipeline: predecoder saw %d shots, want 0", name, decoded)
		}
	}
}
