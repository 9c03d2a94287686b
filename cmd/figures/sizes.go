package main

import (
	"fmt"
	"strings"

	"prefetch/internal/access"
	"prefetch/internal/core"
	"prefetch/internal/plot"
	"prefetch/internal/rng"
	"prefetch/internal/sim"
	"prefetch/internal/sweep"
)

// runSizes is experiment E9: the non-uniform item-size extension. Item
// sizes track retrieval times (unit-bandwidth link) and ride on the trace,
// so sim.RunPrefetchCache, the Figure 7 replay, runs a byte-capacity
// cache. Compared, each without prefetching and with SKP: size-aware
// (value-per-byte) and size-blind (absolute-value) demand eviction.
// Prefetch admission always uses the size-aware Figure-6 generalisation
// (core.ArbitrateSized).
func runSizes(cfg config, summary *strings.Builder) error {
	fmt.Fprintf(summary, "\n--- Extension: non-uniform item sizes (E9) ---\n")
	r := rng.New(cfg.seed ^ 0x512E5)
	requests := cfg.requests
	if requests > 20000 {
		requests = 20000
	}
	mcfg := access.Fig7MarkovConfig()
	mcfg.SkewAlpha = 8
	trace, err := sim.BuildMarkovTrace(r, mcfg, 1, 30, requests)
	if err != nil {
		return err
	}
	trace.Sizes = sim.BuildSizes(r, trace.Retrievals)
	var totalBytes int64
	for _, s := range trace.Sizes {
		totalBytes += s
	}
	planners := []sim.CachePlanner{
		{Label: "no prefetch, size-aware", Solver: sim.NoPrefetch{}, Sub: core.SubDS, Ordering: core.ByDensity},
		{Label: "no prefetch, size-blind", Solver: sim.NoPrefetch{}, Sub: core.SubDS, Ordering: core.ByValue},
		{Label: "SKP, size-aware eviction", Solver: sim.SKPPolicy{}, Sub: core.SubDS, Ordering: core.ByDensity},
		{Label: "SKP, size-blind eviction", Solver: sim.SKPPolicy{}, Sub: core.SubDS, Ordering: core.ByValue},
	}
	fracs := []float64{0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0}

	chart := &plot.Chart{
		Title:  "E9: byte-capacity cache with non-uniform item sizes",
		XLabel: "cache capacity (fraction of corpus bytes)",
		YLabel: "mean access time",
	}
	type cell struct {
		planner sim.CachePlanner
		frac    float64
	}
	var cells []cell
	for _, pl := range planners {
		for _, f := range fracs {
			cells = append(cells, cell{pl, f})
		}
	}
	means, err := sweep.Map(cells, func(c cell) (float64, error) {
		capBytes := int64(float64(totalBytes) * c.frac)
		if capBytes < 1 {
			capBytes = 1
		}
		res, err := sim.RunPrefetchCache(trace, c.planner, int(capBytes), sim.CacheOptions{})
		if err != nil {
			return 0, err
		}
		return res.Access.Mean(), nil
	})
	if err != nil {
		return err
	}
	for pi, pl := range planners {
		xs := make([]float64, len(fracs))
		ys := make([]float64, len(fracs))
		for fi, f := range fracs {
			xs[fi] = f
			ys[fi] = means[pi*len(fracs)+fi]
		}
		chart.Series = append(chart.Series, plot.Series{Name: pl.Label, X: xs, Y: ys})
		fmt.Fprintf(summary, "%-26s", pl.Label)
		for fi, f := range fracs {
			fmt.Fprintf(summary, " %.2f→%.3f", f, ys[fi])
		}
		fmt.Fprintln(summary)
	}
	return saveChart(cfg, "ablation_sizes", chart)
}
