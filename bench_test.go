package prefetch_test

// One benchmark per paper artefact (Figures 4, 5, 7) plus the ablations,
// so `go test -bench=.` regenerates a scaled-down version of every
// experiment and reports its headline metric alongside the runtime. The
// full-size figures are produced by cmd/figures; these benches exist to
// track the cost and the key outputs of each pipeline.

import (
	"testing"

	"prefetch"
	"prefetch/internal/access"
	"prefetch/internal/core"
	"prefetch/internal/rng"
	"prefetch/internal/sim"
	"prefetch/internal/workload"
)

// benchRounds builds a reproducible prefetch-only workload.
func benchRounds(b *testing.B, n, count int, gen access.ProbGen) []workload.Round {
	b.Helper()
	rounds, err := workload.Random(rng.New(42), workload.Fig45Config(n, gen), count)
	if err != nil {
		b.Fatal(err)
	}
	return rounds
}

// BenchmarkFigure4Scatter runs the Figure-4 pipeline (SKP scatter, skewy,
// n=10) at 1000 rounds per op and reports the mean access time.
func BenchmarkFigure4Scatter(b *testing.B) {
	rounds := benchRounds(b, 10, 1000, access.SkewyGen{})
	policies := []sim.Policy{sim.SKPPolicy{}, sim.KPPolicy{}}
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		results, err := sim.RunPrefetchOnly(rounds, policies, sim.PrefetchOnlyOptions{ScatterLimit: 500})
		if err != nil {
			b.Fatal(err)
		}
		mean = results[0].Overall.Mean()
	}
	b.ReportMetric(mean, "meanT")
}

// BenchmarkFigure5Panel runs one Figure-5 panel (all five series, n=10,
// skewy) at 1000 rounds per op.
func BenchmarkFigure5Panel(b *testing.B) {
	rounds := benchRounds(b, 10, 1000, access.SkewyGen{})
	policies := []sim.Policy{
		sim.NoPrefetch{}, sim.PerfectPolicy{}, sim.KPPolicy{},
		sim.SKPPolicy{Mode: core.DeltaPaperTail}, sim.SKPPolicy{},
	}
	b.ResetTimer()
	var skpMean float64
	for i := 0; i < b.N; i++ {
		results, err := sim.RunPrefetchOnly(rounds, policies, sim.PrefetchOnlyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		skpMean = results[4].Overall.Mean()
	}
	b.ReportMetric(skpMean, "meanT-skp")
}

// BenchmarkFigure5PanelN25 is the n=25 variant (larger SKP instances).
func BenchmarkFigure5PanelN25(b *testing.B) {
	rounds := benchRounds(b, 25, 500, access.SkewyGen{})
	policies := []sim.Policy{sim.SKPPolicy{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunPrefetchOnly(rounds, policies, sim.PrefetchOnlyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Point runs one Figure-7 point (SKP+Pr+DS, cache 40,
// 2000 requests) per op and reports mean access time and hit rate.
func BenchmarkFigure7Point(b *testing.B) {
	trace, err := sim.BuildMarkovTrace(rng.New(43), access.Fig7MarkovConfig(), 1, 30, 2000)
	if err != nil {
		b.Fatal(err)
	}
	planner := sim.Fig7Planners(core.DeltaTheorem3)[4] // SKP+Pr+DS
	b.ResetTimer()
	var res sim.CacheResult
	for i := 0; i < b.N; i++ {
		res, err = sim.RunPrefetchCache(trace, planner, 40, sim.CacheOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Access.Mean(), "meanT")
	b.ReportMetric(res.HitRate(), "hitRate")
}

// BenchmarkFigure7NoPrefetch is the demand-caching baseline point.
func BenchmarkFigure7NoPrefetch(b *testing.B) {
	trace, err := sim.BuildMarkovTrace(rng.New(43), access.Fig7MarkovConfig(), 1, 30, 2000)
	if err != nil {
		b.Fatal(err)
	}
	planner := sim.Fig7Planners(core.DeltaTheorem3)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunPrefetchCache(trace, planner, 40, sim.CacheOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPruning measures the Theorem-2 bound's effect: one op
// solves the same instance with and without pruning (E4).
func BenchmarkAblationPruning(b *testing.B) {
	r := rng.New(44)
	probs := make([]float64, 16)
	access.SkewyGen{}.Generate(r, probs)
	items := make([]core.Item, 16)
	for i := range items {
		items[i] = core.Item{ID: i, Prob: probs[i], Retrieval: float64(r.IntRange(1, 30))}
	}
	p := core.Problem{Items: items, Viewing: 60}
	b.ResetTimer()
	var with, without int64
	for i := 0; i < b.N; i++ {
		_, sw, err := core.SolveSKPOpts(p, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		_, swo, err := core.SolveSKPOpts(p, core.Options{DisableBound: true})
		if err != nil {
			b.Fatal(err)
		}
		with, without = sw.Nodes, swo.Nodes
	}
	b.ReportMetric(float64(with), "nodes-pruned")
	b.ReportMetric(float64(without), "nodes-unpruned")
}

// BenchmarkAblationDelta compares the literal Fig-3 δ with the corrected
// one on one small-v instance per op (E5).
func BenchmarkAblationDelta(b *testing.B) {
	rounds := benchRounds(b, 10, 200, access.SkewyGen{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rd := range rounds {
			p := rd.Problem()
			if _, _, err := core.SolveSKPPaper(p); err != nil {
				b.Fatal(err)
			}
			if _, _, err := core.SolveSKP(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLookaheadSession runs the E6 event-driven session at 500
// requests per op.
func BenchmarkLookaheadSession(b *testing.B) {
	trace, err := sim.BuildMarkovTrace(rng.New(45), access.MarkovConfig{
		States: 50, MinOut: 5, MaxOut: 10, MinViewing: 1, MaxViewing: 20, SkewAlpha: 12,
	}, 1, 30, 500)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunMarkovSession(trace, sim.LookaheadPolicy{}, sim.SessionOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLambdaSweep runs the E7 Pareto sweep (6 λ values × 200 rounds)
// per op.
func BenchmarkLambdaSweep(b *testing.B) {
	rounds := benchRounds(b, 10, 200, access.SkewyGen{})
	var policies []sim.Policy
	for _, l := range []float64{0, 0.05, 0.15, 0.4, 1, 3} {
		policies = append(policies, sim.CostAwarePolicy{Lambda: l})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunPrefetchOnly(rounds, policies, sim.PrefetchOnlyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSizedCachePoint runs one E9 point per op.
func BenchmarkSizedCachePoint(b *testing.B) {
	r := rng.New(46)
	trace, err := sim.BuildMarkovTrace(r, access.Fig7MarkovConfig(), 1, 30, 2000)
	if err != nil {
		b.Fatal(err)
	}
	trace.Sizes = sim.BuildSizes(r, trace.Retrievals)
	var total int64
	for _, s := range trace.Sizes {
		total += s
	}
	pl := sim.CachePlanner{Label: "skp", Solver: sim.SKPPolicy{}, Sub: core.SubDS, Ordering: core.ByDensity}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunPrefetchCache(trace, pl, int(total/3), sim.CacheOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSKPDepth2 measures the exact two-step solver on a
// Markov-style decision (12 candidates, 12 successor problems).
func BenchmarkSolveSKPDepth2(b *testing.B) {
	r := rng.New(49)
	mkProblem := func() core.Problem {
		n := 12
		probs := make([]float64, n)
		r.Dirichlet(0.5, probs)
		items := make([]core.Item, n)
		for i := range items {
			items[i] = core.Item{ID: i, Prob: probs[i], Retrieval: float64(r.IntRange(1, 30))}
		}
		return core.Problem{Items: items, Viewing: float64(r.IntRange(5, 40))}
	}
	p := mkProblem()
	var succ []core.WeightedProblem
	for _, it := range p.Items {
		succ = append(succ, core.WeightedProblem{Weight: it.Prob, Problem: mkProblem()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveSKPDepth2(p, succ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSKPFacade measures a single solver call through the public
// API at the Fig-4/5 instance size.
func BenchmarkSolveSKPFacade(b *testing.B) {
	r := prefetch.NewRand(47)
	probs := make([]float64, 10)
	prefetch.SkewyGen{}.Generate(r, probs)
	items := make([]prefetch.Item, 10)
	for i := range items {
		items[i] = prefetch.Item{ID: i, Prob: probs[i], Retrieval: float64(r.IntRange(1, 30))}
	}
	p := prefetch.Problem{Items: items, Viewing: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prefetch.SolveSKP(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArbitrate measures Figure-6 arbitration against a 100-entry
// cache with 15 candidates.
func BenchmarkArbitrate(b *testing.B) {
	r := prefetch.NewRand(48)
	var cand prefetch.Plan
	for i := 0; i < 15; i++ {
		cand.Items = append(cand.Items, prefetch.Item{
			ID: 1000 + i, Prob: r.Float64() * 0.2, Retrieval: float64(r.IntRange(1, 30)),
		})
	}
	entries := make([]prefetch.CacheEntry, 100)
	for i := range entries {
		entries[i] = prefetch.CacheEntry{
			ID: i, Prob: 0, Retrieval: float64(r.IntRange(1, 30)), Freq: int64(r.IntRange(0, 50)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prefetch.Arbitrate(cand, entries, 0, prefetch.SubDS)
	}
}
