package sweep

// GridSpec is the string-typed form of a Grid — exactly what arrives
// from CLI flags, service job payloads, or config files. ParseGridSpec
// is the one grammar shared by every entry point (and the fuzz target
// that hardens it): comma-separated lists, blank items skipped, with
// the same defaults Grid.withDefaults applies to empty axes.

import (
	"fmt"
	"strconv"
	"strings"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
)

// GridSpec holds the unparsed axes of a sweep grid. Zero-value fields
// select the grid defaults.
type GridSpec struct {
	// Hardware is the profile name (IBM, Google, QuEra, IBM-Sherbrooke);
	// empty selects IBM.
	Hardware string
	// ScaleNs scales the profile so its base cycle equals this many ns
	// (0 = native).
	ScaleNs float64
	// Policies is a comma-separated policy list (Ideal, Passive, Active,
	// Active-intra, ExtraRounds, Hybrid).
	Policies string
	// Distances is a comma-separated odd code distance list.
	Distances string
	// TausNs is a comma-separated synchronization slack list in ns.
	TausNs string
	// ErrorRates is a comma-separated physical error rate list.
	ErrorRates string
	// Bases is a comma-separated merge basis list (X or Z).
	Bases string
	// CyclePNs is patch P's cycle time in ns (0 = hardware base cycle).
	CyclePNs float64
	// CyclePPrimeNs is a comma-separated list of patch P′ cycle times.
	CyclePPrimeNs string
	// EpsNs is the Hybrid policy's residual-slack tolerance in ns.
	EpsNs int64
}

// ParseGridSpec validates the spec and assembles the Grid.
func ParseGridSpec(spec GridSpec) (Grid, error) {
	var g Grid
	name := spec.Hardware
	if name == "" {
		name = "IBM"
	}
	hw, ok := hardware.ByName(name)
	if !ok {
		return g, fmt.Errorf("unknown hardware profile %q (IBM, Google, QuEra, IBM-Sherbrooke)", spec.Hardware)
	}
	if spec.ScaleNs > 0 {
		hw = hw.Scaled(spec.ScaleNs)
	}
	g.HW = hw
	g.CyclePNs = spec.CyclePNs
	g.EpsNs = spec.EpsNs
	for _, s := range SplitList(spec.Policies) {
		pol, ok := core.ParsePolicy(s)
		if !ok {
			return g, fmt.Errorf("unknown policy %q (Ideal, Passive, Active, Active-intra, ExtraRounds, Hybrid)", s)
		}
		g.Policies = append(g.Policies, pol)
	}
	var err error
	if g.Distances, err = ParseIntList(spec.Distances); err != nil {
		return g, fmt.Errorf("distances: %w", err)
	}
	if g.SlackNs, err = ParseFloatList(spec.TausNs); err != nil {
		return g, fmt.Errorf("taus: %w", err)
	}
	if g.ErrorRates, err = ParseFloatList(spec.ErrorRates); err != nil {
		return g, fmt.Errorf("error rates: %w", err)
	}
	if g.CyclePPrimeNs, err = ParseFloatList(spec.CyclePPrimeNs); err != nil {
		return g, fmt.Errorf("cycle P': %w", err)
	}
	for _, s := range SplitList(spec.Bases) {
		b, err := surface.ParseBasis(s)
		if err != nil {
			return g, err
		}
		g.Bases = append(g.Bases, b)
	}
	return g, nil
}

// SplitList splits a comma-separated list, trimming whitespace and
// dropping empty items ("" parses to nil, selecting the axis default).
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseIntList parses a comma-separated integer list.
func ParseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range SplitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloatList parses a comma-separated float list.
func ParseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, part := range SplitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
