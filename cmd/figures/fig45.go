package main

import (
	"fmt"
	"strings"

	"prefetch/internal/access"
	"prefetch/internal/core"
	"prefetch/internal/plot"
	"prefetch/internal/rng"
	"prefetch/internal/sim"
	"prefetch/internal/workload"
)

// fig45Policies are the series of Figures 4 and 5. "SKP" is the literal
// Figure-3 algorithm (what the paper simulated); "SKP*" is the
// Theorem-3-correct solver added by this reproduction.
func fig45Policies() []sim.Policy {
	return []sim.Policy{
		sim.NoPrefetch{},
		sim.PerfectPolicy{},
		sim.KPPolicy{},
		sim.SKPPolicy{Mode: core.DeltaPaperTail},
		sim.SKPPolicy{Mode: core.DeltaTheorem3},
	}
}

// prettyName maps policy names to figure-legend labels.
func prettyName(p string) string {
	switch p {
	case "none":
		return "no prefetch"
	case "perfect":
		return "perfect prefetch"
	case "kp":
		return "KP prefetch"
	case "skp-paper":
		return "SKP prefetch"
	case "skp":
		return "SKP* (Thm-3 δ)"
	default:
		return p
	}
}

// runPrefetchOnlyPanel runs one (n, generator) panel and returns results.
func runPrefetchOnlyPanel(cfg config, n int, gen access.ProbGen, scatter int) ([]sim.PrefetchOnlyResult, []workload.Round, error) {
	// Seed derivation keeps panels independent but reproducible.
	r := rng.New(cfg.seed ^ uint64(n)<<32 ^ uint64(len(gen.Name())))
	rounds, err := workload.Random(r, workload.Fig45Config(n, gen), cfg.iters)
	if err != nil {
		return nil, nil, err
	}
	results, err := sim.RunPrefetchOnly(rounds, fig45Policies(), sim.PrefetchOnlyOptions{ScatterLimit: scatter})
	if err != nil {
		return nil, nil, err
	}
	return results, rounds, nil
}

func findResult(results []sim.PrefetchOnlyResult, name string) *sim.PrefetchOnlyResult {
	for i := range results {
		if results[i].Policy == name {
			return &results[i]
		}
	}
	return nil
}

// runFig4 regenerates the scatter panels of Figure 4: T against v for SKP
// and KP prefetch under skewy and flat probabilities, n = 10. The paper's
// "SKP prefetch" panels are rendered twice — once with the
// Theorem-3-correct solver (which reproduces the described 4b ≈ 4d
// similarity) and once with the literal Figure-3 pseudocode (suffix _lit).
func runFig4(cfg config, summary *strings.Builder) error {
	fmt.Fprintf(summary, "\n--- Figure 4: scatter of access time vs viewing time (n=10) ---\n")
	panels := []struct {
		tag    string
		gen    access.ProbGen
		policy string
	}{
		{"a_skp_skewy", access.SkewyGen{}, "skp"},
		{"b_skp_flat", access.FlatGen{}, "skp"},
		{"c_kp_skewy", access.SkewyGen{}, "kp"},
		{"d_kp_flat", access.FlatGen{}, "kp"},
		{"a_lit_skewy", access.SkewyGen{}, "skp-paper"},
		{"b_lit_flat", access.FlatGen{}, "skp-paper"},
	}
	for _, panel := range panels {
		results, _, err := runPrefetchOnlyPanel(cfg, 10, panel.gen, 500)
		if err != nil {
			return err
		}
		res := findResult(results, panel.policy)
		if res == nil {
			return fmt.Errorf("policy %s missing", panel.policy)
		}
		xs := make([]float64, len(res.Scatter))
		ys := make([]float64, len(res.Scatter))
		overshoot := 0 // points above the max retrieval time of 30
		triangle := 0  // points above the T = v line (Fig. 4c signature)
		for i, pt := range res.Scatter {
			xs[i], ys[i] = pt.Viewing, pt.Access
			if pt.Access > 30 {
				overshoot++
			}
			if pt.Access > pt.Viewing {
				triangle++
			}
		}
		chart := &plot.Chart{
			Title:   fmt.Sprintf("Fig 4%s: %s, %s, n=10", panel.tag[:1], prettyName(panel.policy), panel.gen.Name()),
			XLabel:  "v",
			YLabel:  "T",
			Scatter: true,
			XMax:    100,
			YMax:    50,
			Series:  []plot.Series{{Name: prettyName(panel.policy), X: xs, Y: ys}},
		}
		if err := saveChart(cfg, "fig4"+panel.tag, chart); err != nil {
			return err
		}
		fmt.Fprintf(summary, "fig4%s (%s, %s): %d pts, %d with T>30 (stretch overshoot), %d above T=v\n",
			panel.tag[:1], prettyName(panel.policy), panel.gen.Name(), len(xs), overshoot, triangle)
	}
	return nil
}

// runFig5 regenerates the four panels of Figure 5: average access time
// against viewing time for {no, perfect, KP, SKP} × {skewy, flat} ×
// {n=10, n=25}, plotted for v ≤ 50.
func runFig5(cfg config, summary *strings.Builder) error {
	fmt.Fprintf(summary, "\n--- Figure 5: average access time vs viewing time ---\n")
	panels := []struct {
		tag string
		n   int
		gen access.ProbGen
	}{
		{"a", 10, access.SkewyGen{}},
		{"b", 10, access.FlatGen{}},
		{"c", 25, access.SkewyGen{}},
		{"d", 25, access.FlatGen{}},
	}
	for _, panel := range panels {
		results, _, err := runPrefetchOnlyPanel(cfg, panel.n, panel.gen, 0)
		if err != nil {
			return err
		}
		chart := &plot.Chart{
			Title:  fmt.Sprintf("Fig 5%s: n=%d, %s", panel.tag, panel.n, panel.gen.Name()),
			XLabel: "v",
			YLabel: "average T",
			XMax:   50,
			YMax:   25,
		}
		for _, res := range results {
			xs, ys := res.ByViewing.Points()
			chart.Series = append(chart.Series, plot.Series{Name: prettyName(res.Policy), X: xs, Y: ys})
		}
		if err := saveChart(cfg, "fig5"+panel.tag, chart); err != nil {
			return err
		}

		// Summary: overall means and the small-v anomaly census.
		fmt.Fprintf(summary, "fig5%s (n=%d, %s): ", panel.tag, panel.n, panel.gen.Name())
		for _, res := range results {
			fmt.Fprintf(summary, "%s=%.3f ", res.Policy, res.Overall.Mean())
		}
		none := findResult(results, "none")
		paper := findResult(results, "skp-paper")
		correct := findResult(results, "skp")
		worseBins := 0
		worseBinsCorrect := 0
		for v := 1; v <= 10; v++ {
			nb, pb, cb := none.ByViewing.Bin(v), paper.ByViewing.Bin(v), correct.ByViewing.Bin(v)
			if nb.N() == 0 {
				continue
			}
			if pb.Mean() > nb.Mean() {
				worseBins++
			}
			if cb.Mean() > nb.Mean() {
				worseBinsCorrect++
			}
		}
		fmt.Fprintf(summary, "| v<=10 bins where SKP(paper) > none: %d, SKP*(thm3) > none: %d\n",
			worseBins, worseBinsCorrect)
	}
	return nil
}
