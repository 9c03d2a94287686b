package prefetch_test

import (
	"math"
	"testing"

	"prefetch"
)

// The facade is exercised exactly as an external user would use it.

func exampleProblem() prefetch.Problem {
	return prefetch.Problem{
		Items: []prefetch.Item{
			{ID: 1, Prob: 0.6, Retrieval: 4},
			{ID: 2, Prob: 0.3, Retrieval: 5},
			{ID: 3, Prob: 0.1, Retrieval: 2},
		},
		Viewing: 6,
	}
}

func TestQuickstartFlow(t *testing.T) {
	problem := exampleProblem()
	plan, stats, err := prefetch.SolveSKP(problem)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes == 0 {
		t.Fatal("solver reported no work")
	}
	ids := plan.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("plan = %v, want [1 2]", ids)
	}
	g, err := prefetch.Gain(problem, plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-2.7) > 1e-12 {
		t.Fatalf("gain = %v, want 2.7", g)
	}
	imp, err := prefetch.Improvement(problem, plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imp-g) > 1e-9 {
		t.Fatalf("Improvement %v != Gain %v", imp, g)
	}
	u, err := prefetch.UpperBound(problem)
	if err != nil {
		t.Fatal(err)
	}
	if g > u+1e-9 {
		t.Fatalf("gain %v exceeds bound %v", g, u)
	}
}

func TestFacadeSolverVariants(t *testing.T) {
	problem := exampleProblem()
	if _, _, err := prefetch.SolveSKPPaper(problem); err != nil {
		t.Fatal(err)
	}
	if _, err := prefetch.SolveKP(problem); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prefetch.SolveSKPCostAware(problem, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prefetch.SolveSKPStretchAware(problem, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prefetch.SolveSKPOpts(problem, prefetch.Options{Mode: prefetch.DeltaPaperTail}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prefetch.SolveSKPExhaustive(problem); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeModelHelpers(t *testing.T) {
	problem := exampleProblem()
	if e := prefetch.ExpectedNoPrefetch(problem); math.Abs(e-(0.6*4+0.3*5+0.1*2)) > 1e-12 {
		t.Fatalf("ExpectedNoPrefetch = %v", e)
	}
	if prefetch.Stretch(10, 6) != 4 {
		t.Fatal("Stretch wrong")
	}
	sorted := prefetch.CanonicalOrder(problem.Items)
	if sorted[0].ID != 1 {
		t.Fatal("CanonicalOrder wrong")
	}
	plan, _, err := prefetch.SolveSKP(problem)
	if err != nil {
		t.Fatal(err)
	}
	if w := prefetch.Waste(plan); w <= 0 {
		t.Fatalf("Waste = %v", w)
	}
	T := prefetch.AccessTime(plan, problem.Viewing, 3, func(int) float64 { return 2 })
	if math.Abs(T-5) > 1e-12 { // st = 3, r = 2
		t.Fatalf("AccessTime = %v, want 5", T)
	}
	_, x, _, err := prefetch.LinearRelaxation(problem)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 {
		t.Fatalf("relaxation x = %v", x)
	}
}

func TestFacadeCacheIntegration(t *testing.T) {
	problem := prefetch.Problem{
		Items: []prefetch.Item{
			{ID: 1, Prob: 0.5, Retrieval: 6},
			{ID: 2, Prob: 0.3, Retrieval: 4},
			{ID: 3, Prob: 0.2, Retrieval: 9},
		},
		Viewing: 10,
	}
	sub := prefetch.Problem{
		Items:     []prefetch.Item{problem.Items[0], problem.Items[1]},
		Viewing:   10,
		TotalProb: 1,
	}
	plan, _, err := prefetch.SolveSKP(sub)
	if err != nil {
		t.Fatal(err)
	}
	entries := []prefetch.CacheEntry{{ID: 3, Prob: 0.2, Retrieval: 9, Freq: 2}}
	res := prefetch.Arbitrate(plan, entries, 0, prefetch.SubDS)
	if res.Accepted.Len() == 0 {
		t.Fatal("nothing admitted")
	}
	g, err := prefetch.GainWithCache(problem, res.Accepted, []int{3}, res.Ejected())
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 {
		t.Fatalf("cache-integrated gain = %v", g)
	}
	if e := prefetch.ExpectedNoPrefetchCached(problem, []int{3}); math.Abs(e-(0.5*6+0.3*4)) > 1e-12 {
		t.Fatalf("ExpectedNoPrefetchCached = %v", e)
	}
	if _, ok := prefetch.DemandVictim(entries, prefetch.SubNone); !ok {
		t.Fatal("no demand victim")
	}
	sized, err := prefetch.ArbitrateSized(
		[]prefetch.SizedCandidate{{Item: problem.Items[0], Size: 2}},
		[]prefetch.SizedEntry{{CacheEntry: entries[0], Size: 3}},
		0, prefetch.SubNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(sized.Accepted) != 1 {
		t.Fatal("sized arbitration rejected a worthy candidate")
	}
}

func TestFacadeSimulation(t *testing.T) {
	r := prefetch.NewRand(7)
	rounds, err := prefetch.RandomRounds(r, prefetch.Fig45Config(10, prefetch.SkewyGen{}), 300)
	if err != nil {
		t.Fatal(err)
	}
	results, err := prefetch.RunPrefetchOnly(rounds,
		[]prefetch.Policy{prefetch.NoPrefetch{}, prefetch.SKPPolicy{}, prefetch.PerfectPolicy{}},
		prefetch.PrefetchOnlyOptions{ScatterLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	if results[1].Overall.Mean() >= results[0].Overall.Mean() {
		t.Fatal("SKP not better than no-prefetch on skewy workload")
	}

	trace, err := prefetch.BuildMarkovTrace(r, prefetch.MarkovConfig{
		States: 20, MinOut: 3, MaxOut: 6, MinViewing: 1, MaxViewing: 30,
	}, 1, 30, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, planner := range prefetch.Fig7Planners(prefetch.DeltaTheorem3) {
		res, err := prefetch.RunPrefetchCache(trace, planner, 8, prefetch.CacheOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != 500 {
			t.Fatalf("%s: %d requests", planner.Label, res.Requests)
		}
	}
}

func TestFacadePredictors(t *testing.T) {
	// DependencyGraph, PPM, the oracle and the shared aggregate's client
	// views all satisfy the single public Predictor interface.
	var preds []prefetch.Predictor
	d := prefetch.NewDependencyGraph()
	preds = append(preds, d)
	p, err := prefetch.NewPPM(2)
	if err != nil {
		t.Fatal(err)
	}
	preds = append(preds, p)
	site, err := prefetch.GenerateSite(prefetch.NewRand(3), prefetch.DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	preds = append(preds, prefetch.NewOraclePredictor(prefetch.NewSurfer(prefetch.NewRand(4), site, 0.85)))
	preds = append(preds, prefetch.NewPredictorAggregate().ForClient(0))
	for _, pr := range preds {
		pr.Observe(1)
		pr.Observe(2)
		pr.Observe(1)
		if len(pr.Next(1)) == 0 {
			t.Errorf("%s predicts nothing after observing 1,2,1", pr.Name())
		}
	}
	out := make([]float64, 3)
	if n := d.NextInto(1, out); n != 1 || out[2] != 1 {
		t.Errorf("depgraph after 1→2 observations: NextInto(1) = %v (support %d), want {2:1}", out, n)
	}
	if kinds := prefetch.PredictorKinds(); len(kinds) != 7 || kinds[0] != prefetch.PredictorOracle ||
		kinds[4] != prefetch.PredictorDecay || kinds[5] != prefetch.PredictorMixture ||
		kinds[6] != prefetch.PredictorPPMEscape {
		t.Errorf("PredictorKinds() = %v", kinds)
	}
}

func TestFacadeErrors(t *testing.T) {
	bad := prefetch.Problem{Items: []prefetch.Item{{ID: 1, Prob: 2, Retrieval: 1}}, Viewing: 1}
	if _, _, err := prefetch.SolveSKP(bad); err == nil {
		t.Fatal("invalid problem accepted")
	}
}
