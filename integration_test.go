package prefetch_test

// End-to-end integration tests: miniature versions of every experiment
// pipeline, asserting the orderings the paper reports (not absolute
// numbers). These are the same code paths cmd/figures drives at full
// scale.

import (
	"testing"

	"prefetch"
	"prefetch/internal/access"
	"prefetch/internal/core"
	"prefetch/internal/rng"
	"prefetch/internal/sim"
	"prefetch/internal/sweep"
	"prefetch/internal/workload"
)

func TestEndToEndFigure5Ordering(t *testing.T) {
	rounds, err := workload.Random(rng.New(900), workload.Fig45Config(10, access.SkewyGen{}), 6000)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sim.RunPrefetchOnly(rounds, []sim.Policy{
		sim.NoPrefetch{}, sim.PerfectPolicy{}, sim.KPPolicy{}, sim.SKPPolicy{},
	}, sim.PrefetchOnlyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, res := range results {
		byName[res.Policy] = res.Overall.Mean()
	}
	// Paper's Fig. 5a ordering: perfect <= SKP <= KP <= none.
	if !(byName["perfect"] <= byName["skp"] &&
		byName["skp"] <= byName["kp"]+0.05 &&
		byName["kp"] < byName["none"]) {
		t.Fatalf("figure-5 ordering violated: %v", byName)
	}
}

func TestEndToEndFigure5FlatCollapsesSKPToKP(t *testing.T) {
	// Paper: "the performances of the SKP prefetch and the KP prefetch are
	// almost the same" under the flat method.
	rounds, err := workload.Random(rng.New(901), workload.Fig45Config(10, access.FlatGen{}), 6000)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sim.RunPrefetchOnly(rounds, []sim.Policy{sim.KPPolicy{}, sim.SKPPolicy{}}, sim.PrefetchOnlyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kp, skp := results[0].Overall.Mean(), results[1].Overall.Mean()
	if diff := kp - skp; diff < -0.3 || diff > 0.5 {
		t.Fatalf("flat: SKP (%v) and KP (%v) should nearly coincide", skp, kp)
	}
}

func TestEndToEndFigure7Ordering(t *testing.T) {
	trace, err := sim.BuildMarkovTrace(rng.New(902), access.Fig7MarkovConfig(), 1, 30, 6000)
	if err != nil {
		t.Fatal(err)
	}
	planners := sim.Fig7Planners(core.DeltaTheorem3)
	means, err := sweep.Map(planners, func(pl sim.CachePlanner) (float64, error) {
		res, err := sim.RunPrefetchCache(trace, pl, 30, sim.CacheOptions{})
		if err != nil {
			return 0, err
		}
		return res.Access.Mean(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	noPr, kp, skp, lfu, ds := means[0], means[1], means[2], means[3], means[4]
	if !(ds <= lfu+0.2 && lfu <= skp+0.2 && skp <= kp+0.2 && kp < noPr) {
		t.Fatalf("figure-7 ordering violated: No=%v KP=%v SKP=%v LFU=%v DS=%v", noPr, kp, skp, lfu, ds)
	}
	// Sub-arbitration must provide a real win, not a tie (Fig. 7 "adding
	// sub-arbitration clearly improves the result").
	if ds >= skp {
		t.Fatalf("DS sub-arbitration (%v) did not improve on plain Pr (%v)", ds, skp)
	}
}

func TestEndToEndLambdaFrontierMonotone(t *testing.T) {
	rounds, err := workload.Random(rng.New(903), workload.Fig45Config(10, access.SkewyGen{}), 4000)
	if err != nil {
		t.Fatal(err)
	}
	lambdas := []float64{0, 0.1, 0.5, 2}
	var pols []sim.Policy
	for _, l := range lambdas {
		pols = append(pols, sim.CostAwarePolicy{Lambda: l})
	}
	results, err := sim.RunPrefetchOnly(rounds, pols, sim.PrefetchOnlyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Usage.Mean() > results[i-1].Usage.Mean()+1e-9 {
			t.Fatalf("network usage not decreasing along λ: %v -> %v",
				results[i-1].Usage.Mean(), results[i].Usage.Mean())
		}
		if results[i].Overall.Mean() < results[i-1].Overall.Mean()-0.05 {
			t.Fatalf("access time improved while paying more λ: %v -> %v",
				results[i-1].Overall.Mean(), results[i].Overall.Mean())
		}
	}
}

func TestEndToEndSizedCacheOrdering(t *testing.T) {
	r := rng.New(904)
	mcfg := access.Fig7MarkovConfig()
	mcfg.SkewAlpha = 8
	trace, err := sim.BuildMarkovTrace(r, mcfg, 1, 30, 5000)
	if err != nil {
		t.Fatal(err)
	}
	trace.Sizes = sim.BuildSizes(r, trace.Retrievals)
	var total int64
	for _, s := range trace.Sizes {
		total += s
	}
	noPf := sim.CachePlanner{Label: "none", Solver: sim.NoPrefetch{}, Sub: core.SubDS, Ordering: core.ByDensity}
	skp := sim.CachePlanner{Label: "skp", Solver: sim.SKPPolicy{}, Sub: core.SubDS, Ordering: core.ByDensity}
	a, err := sim.RunPrefetchCache(trace, noPf, int(total/4), sim.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunPrefetchCache(trace, skp, int(total/4), sim.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Access.Mean() >= a.Access.Mean() {
		t.Fatalf("sized SKP (%v) did not beat no-prefetch (%v)", b.Access.Mean(), a.Access.Mean())
	}
}

// The facade can express a complete §5 decision loop (the webproxy example
// distilled), and the loop's bookkeeping stays consistent.
func TestEndToEndFacadeCacheLoop(t *testing.T) {
	r := prefetch.NewRand(905)
	site, err := prefetch.GenerateSite(r, prefetch.SiteConfig{
		Pages: 40, MinLinks: 3, MaxLinks: 6, ZipfS: 1, MinSizeKB: 1, MaxSizeKB: 50,
		BandwidthKBps: 16, LatencyS: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	surfer := prefetch.NewSurfer(r, site, 0.85)
	const slots = 10
	cached := map[int]bool{}
	freq := map[int]int64{}
	probs := make([]float64, len(site.Pages))
	var total float64
	for step := 0; step < 1500; step++ {
		surfer.NextDistributionInto(surfer.Current(), probs)
		var cands []prefetch.Item
		for id, p := range probs {
			if p > 0 && !cached[id] {
				cands = append(cands, prefetch.Item{ID: id, Prob: p, Retrieval: site.Pages[id].Retrieval})
			}
		}
		plan, _, err := prefetch.SolveSKP(prefetch.Problem{Items: cands, Viewing: 5, TotalProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		res := prefetch.Arbitrate(plan, entriesOf(cached, probs, site, freq), slots-len(cached), prefetch.SubDS)
		for i, it := range res.Accepted.Items {
			if v := res.Victims[i]; v != prefetch.NoVictim {
				if !cached[v] {
					t.Fatalf("step %d: victim %d not cached", step, v)
				}
				delete(cached, v)
			}
			if cached[it.ID] {
				t.Fatalf("step %d: double-cached %d", step, it.ID)
			}
			cached[it.ID] = true
		}
		if len(cached) > slots {
			t.Fatalf("step %d: cache overflow: %d > %d", step, len(cached), slots)
		}
		next := surfer.Step()
		st := res.Accepted.Stretch(5)
		switch {
		case res.Accepted.Contains(next):
			total += prefetch.AccessTime(res.Accepted, 5, next, func(id int) float64 { return site.Pages[id].Retrieval })
		case cached[next]:
			// hit
		default:
			total += st + site.Pages[next].Retrieval
			if len(cached) >= slots {
				victim, ok := prefetch.DemandVictim(entriesOf(cached, probs, site, freq), prefetch.SubDS)
				if !ok {
					t.Fatal("no demand victim from full cache")
				}
				delete(cached, victim)
			}
			cached[next] = true
		}
		freq[next]++
	}
	if total <= 0 {
		t.Fatal("loop recorded no latency at all; bookkeeping suspicious")
	}
}

// entriesOf snapshots the cached pages for arbitration, in ascending page
// id.
func entriesOf(cached map[int]bool, probs []float64, site *prefetch.Site, freq map[int]int64) []prefetch.CacheEntry {
	var out []prefetch.CacheEntry
	for id, p := range probs {
		if cached[id] {
			out = append(out, prefetch.CacheEntry{
				ID: id, Prob: p, Retrieval: site.Pages[id].Retrieval, Freq: freq[id],
			})
		}
	}
	return out
}
