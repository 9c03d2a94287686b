package main

import (
	"fmt"
	"strings"

	"prefetch/internal/access"
	"prefetch/internal/core"
	"prefetch/internal/plot"
	"prefetch/internal/rng"
	"prefetch/internal/sim"
	"prefetch/internal/stats"
	"prefetch/internal/workload"
)

// randProblem draws a solver instance matching the Fig-4/5 workload.
func randProblem(r *rng.Source, n int, gen access.ProbGen, vMax int) core.Problem {
	probs := make([]float64, n)
	gen.Generate(r, probs)
	items := make([]core.Item, n)
	for i := range items {
		items[i] = core.Item{ID: i, Prob: probs[i], Retrieval: float64(r.IntRange(1, 30))}
	}
	return core.Problem{Items: items, Viewing: float64(r.IntRange(1, vMax))}
}

// runPruning quantifies what the Theorem-2 bound saves: branch-and-bound
// nodes with and without pruning, as a function of n (experiment E4).
func runPruning(cfg config, summary *strings.Builder) error {
	fmt.Fprintf(summary, "\n--- Ablation: Theorem-2 bound pruning (E4) ---\n")
	r := rng.New(cfg.seed ^ 0xABB0)
	instances := 200
	if cfg.quick {
		instances = 50
	}
	var xs, withB, withoutB []float64
	for _, n := range []int{8, 12, 16, 20} {
		var nodesWith, nodesWithout stats.Accumulator
		for i := 0; i < instances; i++ {
			p := randProblem(r, n, access.SkewyGen{}, 100)
			_, sw, err := core.SolveSKPOpts(p, core.Options{})
			if err != nil {
				return err
			}
			_, swo, err := core.SolveSKPOpts(p, core.Options{DisableBound: true})
			if err != nil {
				return err
			}
			nodesWith.Add(float64(sw.Nodes))
			nodesWithout.Add(float64(swo.Nodes))
		}
		xs = append(xs, float64(n))
		withB = append(withB, nodesWith.Mean())
		withoutB = append(withoutB, nodesWithout.Mean())
		fmt.Fprintf(summary, "n=%d: mean nodes with bound %.1f, without %.1f (%.1fx reduction)\n",
			n, nodesWith.Mean(), nodesWithout.Mean(), nodesWithout.Mean()/nodesWith.Mean())
	}
	chart := &plot.Chart{
		Title:  "E4: B&B nodes with vs without Theorem-2 pruning",
		XLabel: "n (items)",
		YLabel: "mean search nodes",
		Series: []plot.Series{
			{Name: "with bound", X: xs, Y: withB},
			{Name: "without bound", X: xs, Y: withoutB},
		},
	}
	return saveChart(cfg, "ablation_pruning", chart)
}

// runDelta measures how often the literal Figure-3 δ (tail coefficient)
// picks a plan whose true Eq.3 gain is suboptimal or negative, by viewing
// time (experiment E5).
func runDelta(cfg config, summary *strings.Builder) error {
	fmt.Fprintf(summary, "\n--- Ablation: literal Fig-3 δ vs Theorem-3 δ (E5) ---\n")
	r := rng.New(cfg.seed ^ 0xDE17A)
	instances := 2000
	if cfg.quick {
		instances = 300
	}
	var xs, subopt, negative, gap []float64
	for _, vMax := range []int{5, 10, 20, 40, 80} {
		nSub, nNeg := 0, 0
		var gapAcc stats.Accumulator
		for i := 0; i < instances; i++ {
			p := randProblem(r, 10, access.SkewyGen{}, vMax)
			paperPlan, _, err := core.SolveSKPPaper(p)
			if err != nil {
				return err
			}
			exactPlan, _, err := core.SolveSKP(p)
			if err != nil {
				return err
			}
			gPaper, err := core.Gain(p, paperPlan)
			if err != nil {
				return err
			}
			gExact, err := core.Gain(p, exactPlan)
			if err != nil {
				return err
			}
			if gPaper < gExact-1e-9 {
				nSub++
				gapAcc.Add(gExact - gPaper)
			}
			if gPaper < -1e-9 {
				nNeg++
			}
		}
		xs = append(xs, float64(vMax))
		subopt = append(subopt, 100*float64(nSub)/float64(instances))
		negative = append(negative, 100*float64(nNeg)/float64(instances))
		g := 0.0
		if gapAcc.N() > 0 {
			g = gapAcc.Mean()
		}
		gap = append(gap, g)
		fmt.Fprintf(summary, "v<=%d: literal δ suboptimal on %.1f%% of instances (mean gap %.3f), negative true gain on %.1f%%\n",
			vMax, subopt[len(subopt)-1], g, negative[len(negative)-1])
	}
	chart := &plot.Chart{
		Title:  "E5: literal Fig-3 δ pathology by viewing-time range",
		XLabel: "max viewing time",
		YLabel: "% of instances",
		Series: []plot.Series{
			{Name: "suboptimal plan", X: xs, Y: subopt},
			{Name: "negative true gain", X: xs, Y: negative},
		},
	}
	return saveChart(cfg, "ablation_delta", chart)
}

// runLookahead compares one-step SKP with the stretch-priced depth-2
// planner in the event-driven session where stretch really intrudes into
// the next viewing window (experiment E6).
func runLookahead(cfg config, summary *strings.Builder) error {
	fmt.Fprintf(summary, "\n--- Extension: depth-2 lookahead in the intrusion session (E6) ---\n")
	requests := cfg.requests
	if requests > 20000 {
		requests = 20000 // event-driven; keep the default run snappy
	}
	planners := []struct {
		pol   sim.Policy
		opts  sim.SessionOptions
		label string
	}{
		{sim.NoPrefetch{}, sim.SessionOptions{}, "no prefetch"},
		{sim.KPPolicy{}, sim.SessionOptions{}, "KP"},
		{sim.SKPPolicy{}, sim.SessionOptions{}, "SKP"},
		{sim.LookaheadPolicy{}, sim.SessionOptions{}, "SKP+lookahead"},
		{sim.Depth2Policy{}, sim.SessionOptions{}, "SKP+depth2-exact"},
		{sim.SKPPolicy{}, sim.SessionOptions{EffectiveViewing: true}, "SKP+effective-v"},
		{sim.Depth2Policy{}, sim.SessionOptions{EffectiveViewing: true}, "SKP+depth2+effective-v"},
	}
	// Use a tighter-viewing-time, skew-transition chain so that stretching
	// is actually attractive and its intrusion into the next window shows.
	r := rng.New(cfg.seed ^ 0x100CA)
	trace, err := sim.BuildMarkovTrace(r, access.MarkovConfig{
		States: 100, MinOut: 10, MaxOut: 20, MinViewing: 1, MaxViewing: 20, SkewAlpha: 12,
	}, 1, 30, requests)
	if err != nil {
		return err
	}
	var names []string
	var means, busy []float64
	for _, pl := range planners {
		res, err := sim.RunMarkovSession(trace, pl.pol, pl.opts)
		if err != nil {
			return err
		}
		names = append(names, pl.label)
		means = append(means, res.Access.Mean())
		busy = append(busy, res.NetworkBusy/float64(res.Requests))
		fmt.Fprintf(summary, "%-26s mean T = %.3f, network/request = %.2f\n",
			pl.label, res.Access.Mean(), res.NetworkBusy/float64(res.Requests))
	}
	xs := make([]float64, len(names))
	for i := range xs {
		xs[i] = float64(i)
	}
	chart := &plot.Chart{
		Title:  "E6: session access time under stretch intrusion (policy index)",
		XLabel: "policy index (see CSV/summary for names)",
		YLabel: "mean access time",
		Series: []plot.Series{
			{Name: "mean T", X: xs, Y: means},
			{Name: "network/request ÷ 10", X: xs, Y: scale(busy, 0.1)},
		},
	}
	return saveChart(cfg, "ablation_lookahead", chart)
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// runLambda sweeps the network-usage price λ and maps the access-time vs
// network-usage Pareto frontier (experiment E7, paper §6 future work).
func runLambda(cfg config, summary *strings.Builder) error {
	fmt.Fprintf(summary, "\n--- Extension: network-usage-aware prefetching (E7) ---\n")
	r := rng.New(cfg.seed ^ 0x1A3BDA)
	iters := cfg.iters
	if iters > 20000 {
		iters = 20000
	}
	rounds, err := workload.Random(r, workload.Fig45Config(10, access.SkewyGen{}), iters)
	if err != nil {
		return err
	}
	lambdas := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6}
	policies := make([]sim.Policy, 0, len(lambdas))
	for _, l := range lambdas {
		policies = append(policies, sim.CostAwarePolicy{Lambda: l})
	}
	results, err := sim.RunPrefetchOnly(rounds, policies, sim.PrefetchOnlyOptions{})
	if err != nil {
		return err
	}
	var ts, usage []float64
	for i, res := range results {
		ts = append(ts, res.Overall.Mean())
		usage = append(usage, res.Usage.Mean())
		fmt.Fprintf(summary, "λ=%-5.2f mean T = %.3f, prefetch network/round = %.2f, waste/round = %.2f\n",
			lambdas[i], res.Overall.Mean(), res.Usage.Mean(), res.Waste.Mean())
	}
	chart := &plot.Chart{
		Title:  "E7: access-time vs network-usage frontier (λ sweep)",
		XLabel: "prefetch network time per round",
		YLabel: "mean access time",
		Series: []plot.Series{{Name: "λ frontier", X: usage, Y: ts}},
	}
	return saveChart(cfg, "ablation_lambda", chart)
}
