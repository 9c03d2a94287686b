package sim

import (
	"errors"
	"math"
	"testing"

	"prefetch/internal/access"
	"prefetch/internal/core"
	"prefetch/internal/rng"
	"prefetch/internal/workload"
)

func makeRounds(t *testing.T, seed uint64, n, count int, gen access.ProbGen) []workload.Round {
	t.Helper()
	r := rng.New(seed)
	rounds, err := workload.Random(r, workload.Fig45Config(n, gen), count)
	if err != nil {
		t.Fatal(err)
	}
	return rounds
}

func resultByName(t *testing.T, results []PrefetchOnlyResult, name string) *PrefetchOnlyResult {
	t.Helper()
	for i := range results {
		if results[i].Policy == name {
			return &results[i]
		}
	}
	t.Fatalf("policy %q missing from results", name)
	return nil
}

func TestRunPrefetchOnlyBasics(t *testing.T) {
	rounds := makeRounds(t, 101, 10, 2000, access.SkewyGen{})
	policies := []Policy{NoPrefetch{}, PerfectPolicy{}, KPPolicy{}, SKPPolicy{}}
	results, err := RunPrefetchOnly(rounds, policies, PrefetchOnlyOptions{ScatterLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	none := resultByName(t, results, "none")
	perfect := resultByName(t, results, "perfect")
	kp := resultByName(t, results, "kp")
	skp := resultByName(t, results, "skp")

	if none.Overall.N() != 2000 {
		t.Fatalf("none N = %d", none.Overall.N())
	}
	// No-prefetch average must be near E[r] = 15.5 and strictly worst.
	if none.Overall.Mean() < 13 || none.Overall.Mean() > 18 {
		t.Fatalf("none mean %v implausible", none.Overall.Mean())
	}
	// Perfect is the oracle lower bound.
	if perfect.Overall.Mean() > kp.Overall.Mean()+1e-9 {
		t.Fatal("perfect worse than KP")
	}
	if perfect.Overall.Mean() > skp.Overall.Mean()+1e-9 {
		t.Fatal("perfect worse than SKP")
	}
	// Prefetching must beat no-prefetch overall on skewy workloads.
	if skp.Overall.Mean() >= none.Overall.Mean() {
		t.Fatal("SKP did not beat no-prefetch on skewy workload")
	}
	if kp.Overall.Mean() >= none.Overall.Mean() {
		t.Fatal("KP did not beat no-prefetch on skewy workload")
	}
	// Scatter respected the cap.
	if len(skp.Scatter) != 100 {
		t.Fatalf("scatter kept %d points", len(skp.Scatter))
	}
	// No-prefetch wastes nothing.
	if none.Waste.Mean() != 0 || none.Usage.Mean() != 0 {
		t.Fatal("no-prefetch reported network usage")
	}
}

// The corrected SKP (Theorem-3 δ) must dominate no-prefetch in expectation
// — the expected improvement of every chosen plan is non-negative. This is
// the property the literal Fig. 3 pseudocode violates at small v.
func TestSKPCorrectedNeverLosesToNoPrefetchInExpectation(t *testing.T) {
	rounds := makeRounds(t, 102, 10, 3000, access.SkewyGen{})
	// Use only small-v rounds, the regime where the paper reports SKP
	// losing to no prefetch.
	var small []workload.Round
	for _, rd := range rounds {
		if rd.Viewing <= 10 {
			small = append(small, rd)
		}
	}
	if len(small) < 100 {
		t.Fatalf("only %d small-v rounds", len(small))
	}
	// Compare expected (not sampled) access times round by round.
	for i, rd := range small {
		problem := rd.Problem()
		plan, _, err := core.SolveSKP(problem)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Gain(problem, plan)
		if err != nil {
			t.Fatal(err)
		}
		if g < -1e-9 {
			t.Fatalf("round %d: corrected SKP picked a plan with negative expected improvement %v", i, g)
		}
	}
}

// The literal paper solver must show the Fig. 5a anomaly: strictly negative
// true gain on some small-v skewy rounds.
func TestPaperSKPShowsSmallVAnomaly(t *testing.T) {
	rounds := makeRounds(t, 103, 10, 5000, access.SkewyGen{})
	negatives := 0
	for _, rd := range rounds {
		if rd.Viewing > 8 {
			continue
		}
		problem := rd.Problem()
		plan, _, err := core.SolveSKPPaper(problem)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Gain(problem, plan)
		if err != nil {
			t.Fatal(err)
		}
		if g < -1e-9 {
			negatives++
		}
	}
	if negatives == 0 {
		t.Fatal("literal Fig. 3 solver never chose a harmful plan at small v; anomaly not reproduced")
	}
}

func TestRunPrefetchOnlyValidation(t *testing.T) {
	rounds := makeRounds(t, 104, 5, 10, access.FlatGen{})
	if _, err := RunPrefetchOnly(rounds, nil, PrefetchOnlyOptions{}); err == nil {
		t.Fatal("no policies accepted")
	}
	bad := []workload.Round{{Viewing: -1, Probs: []float64{1}, Retrievals: []float64{1}, Requested: 0}}
	if _, err := RunPrefetchOnly(bad, []Policy{NoPrefetch{}}, PrefetchOnlyOptions{}); err == nil {
		t.Fatal("invalid round accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"none":      NoPrefetch{},
		"skp":       SKPPolicy{},
		"skp-paper": SKPPolicy{Mode: core.DeltaPaperTail},
		"kp":        KPPolicy{},
		"greedy":    GreedyPolicy{},
		"perfect":   PerfectPolicy{},
	}
	for want, pol := range cases {
		if pol.Name() != want {
			t.Errorf("policy name %q, want %q", pol.Name(), want)
		}
	}
	if (CostAwarePolicy{Lambda: 1}).Name() == "" {
		t.Error("parametrised policies must have names")
	}
}

func buildTrace(t *testing.T, seed uint64, states, requests int) *MarkovTrace {
	t.Helper()
	r := rng.New(seed)
	cfg := access.MarkovConfig{States: states, MinOut: 4, MaxOut: 8, MinViewing: 1, MaxViewing: 40}
	if states >= 100 {
		cfg = access.Fig7MarkovConfig()
	}
	trace, err := BuildMarkovTrace(r, cfg, 1, 30, requests)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestBuildMarkovTraceShape(t *testing.T) {
	trace := buildTrace(t, 111, 50, 500)
	if len(trace.States) != 501 {
		t.Fatalf("states length %d", len(trace.States))
	}
	if len(trace.Retrievals) != 50 {
		t.Fatalf("retrievals length %d", len(trace.Retrievals))
	}
	for _, r := range trace.Retrievals {
		if r < 1 || r > 30 {
			t.Fatalf("retrieval %v out of range", r)
		}
	}
	// Every transition in the walk must be a legal edge.
	for k := 0; k+1 < len(trace.States); k++ {
		succ, _ := trace.Chain.Successors(trace.States[k])
		ok := false
		for _, id := range succ {
			if id == trace.States[k+1] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("illegal transition %d -> %d", trace.States[k], trace.States[k+1])
		}
	}
}

func TestBuildMarkovTraceValidation(t *testing.T) {
	r := rng.New(112)
	cfg := access.MarkovConfig{States: 10, MinOut: 2, MaxOut: 3, MinViewing: 1, MaxViewing: 5}
	if _, err := BuildMarkovTrace(r, cfg, 0, 30, 10); err == nil {
		t.Fatal("rMin 0 accepted")
	}
	if _, err := BuildMarkovTrace(r, cfg, 5, 3, 10); err == nil {
		t.Fatal("rMax < rMin accepted")
	}
	if _, err := BuildMarkovTrace(r, cfg, 1, 30, 0); err == nil {
		t.Fatal("0 requests accepted")
	}
}

func TestRunPrefetchCacheBasics(t *testing.T) {
	trace := buildTrace(t, 113, 40, 3000)
	planners := Fig7Planners(core.DeltaTheorem3)
	var means []float64
	for _, pl := range planners {
		res, err := RunPrefetchCache(trace, pl, 20, CacheOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != 3000 {
			t.Fatalf("%s: %d requests", pl.Label, res.Requests)
		}
		if res.Access.Mean() < 0 {
			t.Fatalf("%s: negative mean access", pl.Label)
		}
		if res.HitRate() < 0 || res.HitRate() > 1 {
			t.Fatalf("%s: hit rate %v", pl.Label, res.HitRate())
		}
		means = append(means, res.Access.Mean())
	}
	noPr, kp, skp := means[0], means[1], means[2]
	// Prefetching policies must beat pure demand caching.
	if kp >= noPr || skp >= noPr {
		t.Fatalf("prefetch (kp %v, skp %v) did not beat No+Pr (%v)", kp, skp, noPr)
	}
	// No+Pr performs no prefetch network traffic.
	res, err := RunPrefetchCache(trace, planners[0], 20, CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetch != 0 {
		t.Fatal("No+Pr reported prefetch traffic")
	}
}

func TestRunPrefetchCacheLargeCacheApproachesZero(t *testing.T) {
	trace := buildTrace(t, 114, 30, 4000)
	for _, pl := range Fig7Planners(core.DeltaTheorem3) {
		res, err := RunPrefetchCache(trace, pl, 30, CacheOptions{}) // cache fits everything
		if err != nil {
			t.Fatal(err)
		}
		// With every item cachable and 4000 requests over 30 items, the
		// steady state is all-hit; the mean is dominated by warmup.
		if res.Access.Mean() > 2.0 {
			t.Fatalf("%s: mean %v too high for full-size cache", pl.Label, res.Access.Mean())
		}
		if res.HitRate() < 0.9 {
			t.Fatalf("%s: hit rate %v too low for full-size cache", pl.Label, res.HitRate())
		}
	}
}

func TestRunPrefetchCacheMonotoneInCacheSize(t *testing.T) {
	trace := buildTrace(t, 115, 40, 3000)
	pl := Fig7Planners(core.DeltaTheorem3)[4] // SKP+Pr+DS
	var prev float64 = math.Inf(1)
	for _, size := range []int{2, 10, 25, 40} {
		res, err := RunPrefetchCache(trace, pl, size, CacheOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Allow mild non-monotonicity (different victim dynamics), but the
		// overall trend must fall.
		if res.Access.Mean() > prev*1.15+0.2 {
			t.Fatalf("size %d: mean %v not decreasing (prev %v)", size, res.Access.Mean(), prev)
		}
		prev = res.Access.Mean()
	}
}

func TestRunPrefetchCacheValidation(t *testing.T) {
	trace := buildTrace(t, 116, 10, 50)
	pl := Fig7Planners(core.DeltaTheorem3)[2]
	if _, err := RunPrefetchCache(nil, pl, 5, CacheOptions{}); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := RunPrefetchCache(trace, pl, 0, CacheOptions{}); err == nil {
		t.Fatal("zero cache accepted")
	}
	pl.Solver = nil
	if _, err := RunPrefetchCache(trace, pl, 5, CacheOptions{}); !errors.Is(err, ErrBadSim) {
		t.Fatalf("nil solver: err %v, want ErrBadSim", err)
	}
}

func TestRunPrefetchCacheDeterministic(t *testing.T) {
	a := buildTrace(t, 117, 30, 1000)
	b := buildTrace(t, 117, 30, 1000)
	pl := Fig7Planners(core.DeltaTheorem3)[4]
	ra, err := RunPrefetchCache(a, pl, 10, CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunPrefetchCache(b, pl, 10, CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Access.Mean() != rb.Access.Mean() || ra.Hits != rb.Hits {
		t.Fatal("identical seeds diverged")
	}
}

func TestRunMarkovSession(t *testing.T) {
	trace := buildTrace(t, 118, 30, 2000)
	plain, err := RunMarkovSession(trace, SKPPolicy{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Requests != 2000 {
		t.Fatalf("requests %d", plain.Requests)
	}
	none, err := RunMarkovSession(trace, NoPrefetch{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Access.Mean() >= none.Access.Mean() {
		t.Fatalf("SKP session mean %v not better than no-prefetch %v", plain.Access.Mean(), none.Access.Mean())
	}
	// No-prefetch uses the network only for demand fetches.
	if none.NetworkBusy <= 0 {
		t.Fatal("no network activity recorded")
	}
}

func TestLookaheadReducesIntrusionLoss(t *testing.T) {
	// In the event-driven session the stretch of round k eats round k+1's
	// window. The lookahead pricing should not be worse than plain SKP
	// (it rarely stretches when successors are capacity-hungry).
	trace := buildTrace(t, 119, 30, 4000)
	plain, err := RunMarkovSession(trace, SKPPolicy{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	look, err := RunMarkovSession(trace, LookaheadPolicy{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if look.Access.Mean() > plain.Access.Mean()*1.05+0.1 {
		t.Fatalf("lookahead mean %v clearly worse than plain %v", look.Access.Mean(), plain.Access.Mean())
	}
	if look.Policy != "skp-lookahead" {
		t.Fatalf("lookahead policy label %q", look.Policy)
	}
}

func TestRunMarkovSessionValidation(t *testing.T) {
	if _, err := RunMarkovSession(nil, LookaheadPolicy{}, SessionOptions{}); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestDepth2PlannerInSession(t *testing.T) {
	trace := buildTrace(t, 130, 30, 1500)
	exact, err := RunMarkovSession(trace, Depth2Policy{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Policy != "skp-depth2" {
		t.Fatalf("label %q", exact.Policy)
	}
	plain, err := RunMarkovSession(trace, SKPPolicy{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The exact two-step planner should not be clearly worse than myopic
	// SKP in the environment whose structure it models.
	if exact.Access.Mean() > plain.Access.Mean()*1.05+0.1 {
		t.Fatalf("depth-2 mean %v clearly worse than myopic %v", exact.Access.Mean(), plain.Access.Mean())
	}
}

func TestFig7PlannersShape(t *testing.T) {
	pls := Fig7Planners(core.DeltaTheorem3)
	want := []string{"No+Pr", "KP+Pr", "SKP+Pr", "SKP+Pr+LFU", "SKP+Pr+DS"}
	if len(pls) != len(want) {
		t.Fatalf("%d planners", len(pls))
	}
	for i, w := range want {
		if pls[i].Label != w {
			t.Fatalf("planner %d = %q, want %q", i, pls[i].Label, w)
		}
	}
	if pls[0].Solver != (NoPrefetch{}) {
		t.Fatal("No+Pr must not prefetch")
	}
	if pls[4].Sub != core.SubDS || pls[3].Sub != core.SubLFU {
		t.Fatal("sub-arbitrations wrong")
	}
}

func BenchmarkPrefetchOnlyRoundSKP(b *testing.B) {
	r := rng.New(120)
	rounds, err := workload.Random(r, workload.Fig45Config(10, access.SkewyGen{}), b.N)
	if err != nil {
		b.Fatal(err)
	}
	pol := SKPPolicy{}
	b.ResetTimer()
	for _, rd := range rounds {
		plan, err := pol.Plan(rd.Problem(), nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = core.AccessTime(plan, rd.Viewing, rd.Requested, func(id int) float64 { return rd.Retrievals[id] })
	}
}

func BenchmarkPrefetchCacheRound(b *testing.B) {
	r := rng.New(121)
	trace, err := BuildMarkovTrace(r, access.Fig7MarkovConfig(), 1, 30, b.N+1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := RunPrefetchCache(trace, Fig7Planners(core.DeltaTheorem3)[4], 50, CacheOptions{}); err != nil {
		b.Fatal(err)
	}
}
