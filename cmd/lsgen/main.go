// Command lsgen emits Stim-format stabilizer circuits for surface code
// memory and lattice-surgery experiments — the circuit-generator role of
// the paper's lattice-sim artifact. The output loads directly into Stim.
//
// Usage:
//
//	lsgen -kind merge -d 5 -basis XX -hw IBM -p 0.001 -tau 1000 -policy Active
//	lsgen -kind memory -d 3 -basis ZZ
package main

import (
	"flag"
	"fmt"
	"os"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
)

func main() {
	kind := flag.String("kind", "merge", "circuit kind: merge or memory")
	d := flag.Int("d", 3, "code distance (odd)")
	basis := flag.String("basis", "XX", "basis (X or Z; XX and ZZ also accepted)")
	hwName := flag.String("hw", "IBM", "hardware config: IBM, Google, QuEra")
	p := flag.Float64("p", 1e-3, "circuit-level depolarizing strength")
	tau := flag.Float64("tau", 0, "synchronization slack in ns")
	policyName := flag.String("policy", "Ideal", "policy: Ideal, Passive, Active, Active-intra, ExtraRounds, Hybrid")
	eps := flag.Int64("eps", 400, "Hybrid slack tolerance in ns")
	cyclePPrime := flag.Float64("tpprime", 0, "cycle time of P' in ns (0 = hardware base)")
	rounds := flag.Int("rounds", 0, "rounds per phase (0 = d+1)")
	flag.Parse()

	hw, ok := hardware.ByName(*hwName)
	if !ok {
		fatal("unknown hardware config %q", *hwName)
	}
	bs, err := surface.ParseBasis(*basis)
	if err != nil {
		fatal("%v", err)
	}

	switch *kind {
	case "memory":
		res, err := surface.MemorySpec{D: *d, Basis: bs, HW: hw, P: *p, Rounds: *rounds}.Build()
		if err != nil {
			fatal("%v", err)
		}
		if err := res.Circuit.WriteText(os.Stdout); err != nil {
			fatal("%v", err)
		}
	case "merge":
		policy, ok := core.ParsePolicy(*policyName)
		if !ok {
			fatal("unknown policy %q", *policyName)
		}
		spec, _, feasible := sweep.SpecForPolicy(*d, bs, hw, *p, policy, *tau, 0, *cyclePPrime, *eps)
		if !feasible {
			fatal("policy %s infeasible for this configuration", policy)
		}
		if *rounds > 0 {
			spec.RoundsP = *rounds
			spec.RoundsPPrime = *rounds
			spec.RoundsMerged = *rounds
		}
		res, err := spec.Build()
		if err != nil {
			fatal("%v", err)
		}
		if err := res.Circuit.WriteText(os.Stdout); err != nil {
			fatal("%v", err)
		}
	default:
		fatal("kind must be merge or memory")
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lsgen: "+format+"\n", args...)
	os.Exit(1)
}
