package exp

// Extension experiments beyond the paper's figures: the k-patch merge
// chain (§4.3 evaluated end-to-end rather than pairwise), the dropout
// desynchronization survey (§3.2.2 quantified), and decoder ablations
// for the design choices called out in DESIGN.md.

import (
	"fmt"
	"io"

	"latticesim/internal/core"
	"latticesim/internal/decoder"
	"latticesim/internal/dropout"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/stats"
	"latticesim/internal/surface"
)

// ExtChain evaluates a 3-patch merge chain under k-patch synchronization:
// all patches desynchronized, slack absorbed per policy on every leading
// patch simultaneously (§4.3's claim that pairwise plans compose).
func ExtChain(w io.Writer, o Options) error {
	d := o.MaxD
	if d > 5 {
		d = 5 // chains triple the qubit count; keep the default tractable
	}
	header(w, fmt.Sprintf("ext-chain: 3-patch chain LER under k-patch synchronization (d=%d)", d))
	hw := hardware.Google()
	tau := []float64{1000, 500} // patch 0 leads by 1000ns, patch 1 by 500ns

	build := func(policy core.Policy) (mc.LERResult, error) {
		spec := surface.ChainSpec{D: d, K: 3, Basis: surface.BasisX, HW: hw, P: paperP}
		switch policy {
		case core.Passive:
			spec.LumpedIdleNs = []float64{tau[0], tau[1], 0}
		case core.Active:
			spec.SpreadIdleNs = []float64{tau[0], tau[1], 0}
		}
		res, err := spec.Build()
		if err != nil {
			return mc.LERResult{}, err
		}
		pl, err := mc.NewPipeline(res.Circuit)
		if err != nil {
			return mc.LERResult{}, err
		}
		pl.Workers = o.Workers
		return pl.Run(o.Shots, o.Seed), nil
	}

	fmt.Fprintf(w, "%-10s %-14s %-14s %-14s\n", "policy", "seam0 LER", "seam1 LER", "X_P0 LER")
	rates := map[core.Policy][3]float64{}
	for _, pol := range []core.Policy{core.Ideal, core.Passive, core.Active} {
		r, err := build(pol)
		if err != nil {
			return err
		}
		rates[pol] = [3]float64{r.Rate(0), r.Rate(1), r.Rate(2)}
		fmt.Fprintf(w, "%-10s %-14.5f %-14.5f %-14.5f\n", pol, r.Rate(0), r.Rate(1), r.Rate(2))
	}
	fmt.Fprintf(w, "seam0 reduction Passive/Active: %.3f (the pairwise benefit composes across the chain)\n",
		ratio(rates[core.Passive][0], rates[core.Active][0]))
	return nil
}

// ExtDropout surveys how fabrication defects desynchronize a many-patch
// system and how often the Hybrid policy has a solution.
func ExtDropout(w io.Writer, o Options) error {
	header(w, "ext-dropout: defect-induced logical clock spread (LUCI-style adaptation)")
	hw := hardware.IBM()
	fmt.Fprintf(w, "%-12s %-12s %-14s %-12s %-12s %-12s %-14s\n",
		"qubit rate", "defective", "meanCycle(ns)", "maxCycle", "meanSlack", "maxSlack", "hybridFeasible")
	for _, rate := range []float64{0, 1e-4, 1e-3, 5e-3} {
		m := dropout.NewModel(hw, 11, rate, rate/2)
		sites := m.Sample(stats.NewRand(o.Seed), 50)
		st := dropout.Analyze(sites, 100*int64(hw.CycleNs()))
		fmt.Fprintf(w, "%-12.0e %-12d %-14.0f %-12d %-12.0f %-12d %d/%d\n",
			rate, st.DefectivePatch, st.MeanCycleNs, st.MaxCycleNs,
			st.MeanSlackNs, st.MaxSlackNs, st.FeasibleHybrid, st.PairsNeedingSyn)
	}
	fmt.Fprintln(w, "even sub-percent dropout rates leave most patches on distinct logical clocks")
	return nil
}

// ExtAblation compares the decoding stack's design choices on one fixed
// workload: union-find vs exact matching vs lookup table, plus the
// union-find weighted-growth resolution.
func ExtAblation(w io.Writer, o Options) error {
	d := o.MaxD
	if d > 5 {
		d = 5
	}
	header(w, fmt.Sprintf("ext-ablation: decoder choices on a d=%d merge (tau=1000ns Passive)", d))
	spec, _, _ := SpecForPolicy(d, surface.BasisX, hardware.Google(), paperP, core.Passive, 1000, 0, 0, 0)
	res, err := spec.Build()
	if err != nil {
		return err
	}
	pl, err := mc.NewPipeline(res.Circuit)
	if err != nil {
		return err
	}
	m, g := pl.Model, pl.Graph

	pl.Workers = o.Workers
	// Each worker gets a private decoder instance from its row's factory;
	// the decoder graph is shared read-only, and each worker receives a
	// Fork of the shared LUT table (lookups carry per-decoder scratch).
	lut := decoder.BuildLUT(m, 3<<20, 8)
	type row struct {
		name   string
		newDec func() decoder.Decoder
	}
	rows := []row{
		{"union-find", func() decoder.Decoder { return decoder.NewUnionFind(g) }},
		{"exact<=14+greedy", func() decoder.Decoder { return decoder.NewExact(g) }},
		{"lut-3MB+uf", func() decoder.Decoder {
			return &decoder.Hierarchical{LUT: lut.Fork(), Slow: decoder.NewUnionFind(g), Latency: decoder.DefaultLatencyModel(d)}
		}},
	}
	fmt.Fprintf(w, "%-18s %-14s %-14s\n", "decoder", "joint LER", "single LER")
	for _, rw := range rows {
		r := pl.RunWithDecoders(rw.newDec, o.Shots, o.Seed)
		fmt.Fprintf(w, "%-18s %-14.5f %-14.5f\n", rw.name, r.Rate(0), r.Rate(1))
	}
	fmt.Fprintf(w, "graph: %d detectors, %d edges, %d oversized parts, %d obs conflicts\n",
		g.NumDetectors, len(g.Edges), g.OversizedParts, g.ObsConflicts)
	return nil
}
