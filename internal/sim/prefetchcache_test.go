package sim

import (
	"sort"
	"testing"

	"prefetch/internal/core"
	"prefetch/internal/obs"
)

// TestFrequencySurvivesEviction: the paper's freq_i counts requests to the
// item over the whole walk, not while it is cached, so an evicted and
// re-inserted item keeps its history (WATCHMAN-style).
func TestFrequencySurvivesEviction(t *testing.T) {
	// The snapshot reads the count it is given, for any cache residency.
	c := newItemCache(1, 3)
	freq := make([]int64, 3)
	if err := c.insert(1, 1); err != nil {
		t.Fatal(err)
	}
	freq[1] += 2
	if err := c.evict(1); err != nil {
		t.Fatal(err)
	}
	freq[1]++ // a miss counts too
	if err := c.insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if es := c.entries(nil, make([]float64, 3), []float64{5, 5, 5}, freq); len(es) != 1 || es[0].Freq != 3 {
		t.Fatalf("re-inserted entries = %+v, want freq 3", es)
	}

	// The harness: rebuild the cache from SKP+Pr+LFU's decision trace and
	// check every demand victim against core's LFU pick over whole-walk
	// counts. Counting only since the last insert must pick a different
	// victim at least once, or the trace never exercises re-insertion.
	trace, err := goldenTrace(7, 1500)
	if err != nil {
		t.Fatal(err)
	}
	planner := Fig7Planners(core.DeltaTheorem3)[3]
	if planner.Label != "SKP+Pr+LFU" {
		t.Fatalf("planner %q, want SKP+Pr+LFU", planner.Label)
	}
	var col obs.Collector
	if _, err := RunPrefetchCache(trace, planner, 5, CacheOptions{Tracer: &col}); err != nil {
		t.Fatal(err)
	}

	cached := map[int]bool{}
	walk := make([]int64, len(trace.Retrievals))     // requests so far
	resident := make([]int64, len(trace.Retrievals)) // requests since insert
	entries := func(k int, counts []int64) []core.CacheEntry {
		succ, probs := trace.Chain.Successors(trace.States[k])
		probOf := map[int]float64{}
		for i, id := range succ {
			probOf[id] = probs[i]
		}
		var out []core.CacheEntry
		for id := range cached {
			out = append(out, core.CacheEntry{ID: id, Prob: probOf[id], Retrieval: trace.Retrievals[id], Freq: counts[id]})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	insert := func(id int) {
		cached[id] = true
		resident[id] = 0
	}
	demand, differs := 0, 0
	var demandRound int // round of the last demand_issue, 0 if none
	for _, ev := range col.Events {
		k := ev.Round - 1
		switch ev.Kind {
		case obs.KindSpecIssue:
			insert(ev.Page)
		case obs.KindDemandIssue:
			demandRound = ev.Round
		case obs.KindCacheEvict:
			if ev.Round == demandRound {
				want, _ := core.DemandVictim(entries(k, walk), core.SubLFU)
				if ev.Page != want {
					t.Fatalf("round %d: demand victim %d, LFU over whole-walk counts picks %d", ev.Round, ev.Page, want)
				}
				if other, _ := core.DemandVictim(entries(k, resident), core.SubLFU); other != want {
					differs++
				}
				demand++
			}
			delete(cached, ev.Page)
		case obs.KindRoundEnd:
			requested := trace.States[ev.Round]
			if ev.Round == demandRound {
				insert(requested)
			}
			walk[requested]++
			resident[requested]++
		}
	}
	if demand == 0 || differs == 0 {
		t.Fatalf("%d demand evictions, %d where residency counts differ: the trace does not test re-insertion", demand, differs)
	}
}
