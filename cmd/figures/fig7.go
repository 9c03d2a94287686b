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

// runFig7 regenerates Figure 7: access time per request against cache size
// for the five prefetch-cache policies over the 100-state Markov source,
// plus a skewed-transition variant (suffix "skew") where the gap between
// SKP and KP prefetch is visible (the paper does not specify the
// transition probabilities; normalised-uniform ones are nearly flat, and
// flat probabilities make SKP ≈ KP per the paper's own Fig. 5b).
func runFig7(cfg config, summary *strings.Builder) error {
	if err := runFig7Variant(cfg, summary, "fig7", access.Fig7MarkovConfig()); err != nil {
		return err
	}
	skewCfg := access.Fig7MarkovConfig()
	skewCfg.SkewAlpha = 12
	return runFig7Variant(cfg, summary, "fig7skew", skewCfg)
}

func runFig7Variant(cfg config, summary *strings.Builder, name string, mcfg access.MarkovConfig) error {
	fmt.Fprintf(summary, "\n--- Figure 7 (%s): access time per request vs cache size ---\n", name)
	r := rng.New(cfg.seed ^ 0x7777)
	trace, err := sim.BuildMarkovTrace(r, mcfg, 1, 30, cfg.requests)
	if err != nil {
		return err
	}
	planners := sim.Fig7Planners(core.DeltaTheorem3)

	step := cfg.cacheStep
	if step < 1 {
		step = 1
	}
	var sizes []int
	for s := 1; s <= 100; s += step {
		sizes = append(sizes, s)
	}
	if sizes[len(sizes)-1] != 100 {
		sizes = append(sizes, 100)
	}

	chart := &plot.Chart{
		Title:  fmt.Sprintf("%s: prefetch-cache policies (100-state Markov source)", name),
		XLabel: "cache size",
		YLabel: "access time per request",
	}
	// Each (planner, size) cell is independent: fan the sweep out over all
	// cores. The trace is shared read-only; every run owns its cache.
	type cell struct {
		planner sim.CachePlanner
		size    int
	}
	var cells []cell
	for _, pl := range planners {
		for _, size := range sizes {
			cells = append(cells, cell{pl, size})
		}
	}
	means, err := sweep.Map(cells, func(c cell) (float64, error) {
		res, err := sim.RunPrefetchCache(trace, c.planner, c.size, sim.CacheOptions{})
		if err != nil {
			return 0, err
		}
		return res.Access.Mean(), nil
	})
	if err != nil {
		return err
	}
	curves := make(map[string][]float64, len(planners))
	for pi, pl := range planners {
		xs := make([]float64, len(sizes))
		ys := make([]float64, len(sizes))
		for si, size := range sizes {
			xs[si] = float64(size)
			ys[si] = means[pi*len(sizes)+si]
		}
		curves[pl.Label] = ys
		chart.Series = append(chart.Series, plot.Series{Name: pl.Label, X: xs, Y: ys})
	}
	if err := saveChart(cfg, name, chart); err != nil {
		return err
	}

	// Report at the run sizes nearest to the paper-interesting checkpoints.
	nearest := func(target int) int {
		best := 0
		for i, s := range sizes {
			if abs(s-target) < abs(sizes[best]-target) {
				best = i
			}
		}
		return best
	}
	var midIdx int
	for _, target := range []int{10, 30, 60, 100} {
		idx := nearest(target)
		if target == 30 {
			midIdx = idx
		}
		fmt.Fprintf(summary, "%s @cache=%d: ", name, sizes[idx])
		for _, pl := range planners {
			fmt.Fprintf(summary, "%s=%.3f ", pl.Label, curves[pl.Label][idx])
		}
		fmt.Fprintln(summary)
	}
	// Ordering check at a mid cache size: the paper's ranking is
	// SKP+Pr+DS <= SKP+Pr+LFU <= SKP+Pr <= KP+Pr <= No+Pr.
	at := func(label string) float64 { return curves[label][midIdx] }
	ordered := at("SKP+Pr+DS") <= at("SKP+Pr+LFU")+0.3 &&
		at("SKP+Pr+LFU") <= at("SKP+Pr")+0.3 &&
		at("SKP+Pr") <= at("KP+Pr")+0.3 &&
		at("KP+Pr") <= at("No+Pr")+0.3
	fmt.Fprintf(summary, "%s ordering at cache=%d (DS<=LFU<=Pr<=KP<=No, slack 0.3): %v\n", name, sizes[midIdx], ordered)
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
