package sim

import (
	"fmt"

	"prefetch/internal/access"
	"prefetch/internal/cache"
	"prefetch/internal/core"
	"prefetch/internal/obs"
	"prefetch/internal/rng"
	"prefetch/internal/stats"
)

// MarkovTrace is a pre-drawn walk of a Markov source plus per-item
// retrieval times, so that every policy replays the identical request
// sequence (common random numbers — the policy cannot influence the walk).
type MarkovTrace struct {
	Chain      *access.MarkovSource
	States     []int     // visited states; States[k+1] is round k's request
	Retrievals []float64 // r_i per item
}

// BuildMarkovTrace constructs the Fig. 7 workload: a Markov source from
// cfg, retrieval times uniform on [rMin, rMax], and a pre-drawn walk of
// `requests` transitions.
func BuildMarkovTrace(r *rng.Source, cfg access.MarkovConfig, rMin, rMax, requests int) (*MarkovTrace, error) {
	if rMin <= 0 || rMax < rMin {
		return nil, fmt.Errorf("%w: retrieval range [%d,%d]", ErrBadSim, rMin, rMax)
	}
	if requests <= 0 {
		return nil, fmt.Errorf("%w: %d requests", ErrBadSim, requests)
	}
	chain, err := access.BuildMarkov(r, cfg)
	if err != nil {
		return nil, err
	}
	tr := &MarkovTrace{
		Chain:      chain,
		States:     make([]int, requests+1),
		Retrievals: make([]float64, cfg.States),
	}
	for i := range tr.Retrievals {
		tr.Retrievals[i] = float64(r.IntRange(rMin, rMax))
	}
	tr.States[0] = chain.State()
	for k := 1; k <= requests; k++ {
		tr.States[k] = chain.Next()
	}
	return tr, nil
}

// CachePlanner is one prefetch-cache policy of §5.3: a prefetch solver
// (nil for No+Pr) combined with a sub-arbitration for victim ties.
type CachePlanner struct {
	Label  string
	Solver Policy // nil: no prefetching, demand caching only
	Sub    core.SubArbitration
}

// Fig7Planners returns the five policies of Figure 7 in the paper's order:
// No+Pr, KP+Pr, SKP+Pr, SKP+Pr+LFU, SKP+Pr+DS. The SKP variants use the
// given delta mode.
func Fig7Planners(mode core.DeltaMode) []CachePlanner {
	skp := SKPPolicy{Mode: mode}
	return []CachePlanner{
		{Label: "No+Pr", Solver: nil, Sub: core.SubNone},
		{Label: "KP+Pr", Solver: KPPolicy{}, Sub: core.SubNone},
		{Label: "SKP+Pr", Solver: skp, Sub: core.SubNone},
		{Label: "SKP+Pr+LFU", Solver: skp, Sub: core.SubLFU},
		{Label: "SKP+Pr+DS", Solver: skp, Sub: core.SubDS},
	}
}

// CacheResult aggregates one policy run at one cache size.
type CacheResult struct {
	Policy    string
	CacheSize int
	Access    stats.Accumulator // access time per request
	Hits      int64             // requests answered with T = 0
	Requests  int64
	Prefetch  float64 // total prefetch network time
	Demand    float64 // total demand-fetch network time
}

// HitRate returns the fraction of requests with zero access time.
func (r CacheResult) HitRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Requests)
}

// CacheOptions tunes RunPrefetchCache beyond the §5.3 defaults; the zero
// value runs untraced.
type CacheOptions struct {
	// Tracer, when non-nil and enabled, receives a decision trace on
	// track (client id) Track against a virtual clock advancing by
	// viewing + access per round. Page ids are Markov states. Admitted
	// prefetches appear as spec_issue, arbitration and demand evictions
	// as cache_evict, and a request answered from the persistent cache
	// as cache_hit.
	Tracer obs.Tracer
	// Track is the client id stamped on every event, so several policy
	// runs can share one trace file on distinct tracks.
	Track int
}

// RunPrefetchCache replays the trace under one planner and cache size —
// the paper's §5.3 Monte-Carlo. Each round: the client sits in state s for
// v_s, the planner runs SKP/KP over the non-cached successors of s
// (TotalProb = 1 per Eq. 9's universe), Pr-arbitration admits prefetches
// against the cache, the request States[k+1] arrives, and a miss demand-
// fetches with a mandatory victim. Per-item request counts over the walk
// drive LFU/DS.
func RunPrefetchCache(trace *MarkovTrace, planner CachePlanner, cacheSize int, opts CacheOptions) (CacheResult, error) {
	if trace == nil || len(trace.States) < 2 {
		return CacheResult{}, fmt.Errorf("%w: empty trace", ErrBadSim)
	}
	if cacheSize <= 0 {
		return CacheResult{}, fmt.Errorf("%w: cache size %d", ErrBadSim, cacheSize)
	}
	c, err := cache.New(cacheSize)
	if err != nil {
		return CacheResult{}, err
	}
	res := CacheResult{Policy: planner.Label, CacheSize: cacheSize}
	// freq_i counts every request of the walk, cached or not, so an
	// evicted and re-fetched item keeps its history (WATCHMAN-style
	// delay-saving needs this).
	freq := make([]int64, len(trace.Retrievals))
	retrOf := func(id int) float64 { return trace.Retrievals[id] }

	tr := obs.Active(opts.Tracer)
	var now float64 // virtual clock; advances by viewing + access per round
	if tr != nil {
		ev := obs.Ev(0, obs.KindTrack, opts.Track)
		ev.Note = planner.Label
		tr.Emit(ev)
	}

	for k := 0; k+1 < len(trace.States); k++ {
		s := trace.States[k]
		requested := trace.States[k+1]
		v := trace.Chain.Viewing(s)
		succ, probs := trace.Chain.Successors(s)
		probOf := make(map[int]float64, len(succ))
		for i, id := range succ {
			probOf[id] = probs[i]
		}

		if tr != nil {
			ev := obs.Ev(now, obs.KindRoundStart, opts.Track)
			ev.Round = k + 1
			ev.Viewing = v
			tr.Emit(ev)
		}

		var accepted core.Plan
		if planner.Solver != nil {
			var candidates []core.Item
			for i, id := range succ {
				if !c.Contains(id) {
					candidates = append(candidates, core.Item{ID: id, Prob: probs[i], Retrieval: trace.Retrievals[id]})
				}
			}
			problem := core.Problem{Items: candidates, Viewing: v, TotalProb: 1}
			plan, err := planner.Solver.Plan(problem)
			if err != nil {
				return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
			}
			entries := arbitrationEntries(c, probOf, freq)
			arb := core.Arbitrate(plan, entries, c.Free(), planner.Sub)
			for i, it := range arb.Accepted.Items {
				if victim := arb.Victims[i]; victim != core.NoVictim {
					if err := c.Evict(victim); err != nil {
						return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
					}
					if tr != nil {
						ev := obs.Ev(now, obs.KindCacheEvict, opts.Track)
						ev.Round = k + 1
						ev.Page = victim
						tr.Emit(ev)
					}
				}
				if err := c.Insert(it.ID, it.Retrieval); err != nil {
					return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
				}
				if tr != nil {
					ev := obs.Ev(now, obs.KindSpecIssue, opts.Track)
					ev.Round = k + 1
					ev.Page = it.ID
					ev.Prob = it.Prob
					ev.Service = it.Retrieval
					tr.Emit(ev)
				}
			}
			accepted = arb.Accepted
			res.Prefetch += accepted.TotalRetrieval()
		}

		st := accepted.Stretch(v)
		reqAt := now + v
		var t float64
		var demandFetched bool
		switch {
		case accepted.Contains(requested):
			t = core.AccessTime(accepted, v, requested, retrOf)
			if tr != nil {
				ev := obs.Ev(reqAt, obs.KindSpecUseful, opts.Track)
				ev.Round = k + 1
				ev.Page = requested
				ev.Prob = probOf[requested]
				tr.Emit(ev)
			}
		case c.Contains(requested):
			t = 0
			if tr != nil {
				ev := obs.Ev(reqAt, obs.KindCacheHit, opts.Track)
				ev.Round = k + 1
				ev.Page = requested
				tr.Emit(ev)
			}
		default:
			// Demand fetch behind the unaborted prefetch (Fig. 2 case C).
			t = st + trace.Retrievals[requested]
			res.Demand += trace.Retrievals[requested]
			demandFetched = true
			if tr != nil {
				ev := obs.Ev(reqAt, obs.KindDemandIssue, opts.Track)
				ev.Round = k + 1
				ev.Page = requested
				ev.Service = trace.Retrievals[requested]
				tr.Emit(ev)
			}
			if c.Free() == 0 {
				victim, ok := core.DemandVictim(arbitrationEntries(c, probOf, freq), planner.Sub)
				if !ok {
					return CacheResult{}, fmt.Errorf("round %d: full cache with no victim", k)
				}
				if err := c.Evict(victim); err != nil {
					return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
				}
				if tr != nil {
					ev := obs.Ev(reqAt, obs.KindCacheEvict, opts.Track)
					ev.Round = k + 1
					ev.Page = victim
					tr.Emit(ev)
				}
			}
			if err := c.Insert(requested, trace.Retrievals[requested]); err != nil {
				return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
			}
		}

		freq[requested]++
		res.Access.Add(t)
		res.Requests++
		if t == 0 {
			res.Hits++
		}
		now = reqAt + t
		if tr != nil {
			ev := obs.Ev(now, obs.KindRoundEnd, opts.Track)
			ev.Round = k + 1
			ev.Access = t
			ev.Demand = demandFetched
			tr.Emit(ev)
		}
	}
	return res, nil
}

// arbitrationEntries snapshots the cache for core's arbitration: P_d is the
// next-access probability (zero for non-candidates), freq is the item's
// access count over the walk so far.
func arbitrationEntries(c *cache.Cache, probOf map[int]float64, freq []int64) []core.CacheEntry {
	entries := c.Entries()
	out := make([]core.CacheEntry, len(entries))
	for i, e := range entries {
		out[i] = core.CacheEntry{
			ID:        e.ID,
			Prob:      probOf[e.ID],
			Retrieval: e.Retrieval,
			Freq:      freq[e.ID],
		}
	}
	return out
}
