package sim

import (
	"fmt"

	"prefetch/internal/access"
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
	// Sizes holds each item's size for the non-uniform size extension
	// (BuildSizes); nil means every item fills one equal-size slot, as
	// the paper assumes.
	Sizes []int64
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

// BuildSizes derives item sizes from retrieval times on a unit-bandwidth
// link, with a small multiplicative jitter so sizes and retrievals are
// correlated but not identical.
func BuildSizes(r *rng.Source, retrievals []float64) []int64 {
	sizes := make([]int64, len(retrievals))
	for i, ret := range retrievals {
		jitter := 0.75 + 0.5*r.Float64()
		s := int64(ret*jitter + 0.5)
		if s < 1 {
			s = 1
		}
		sizes[i] = s
	}
	return sizes
}

// CachePlanner is one prefetch-cache policy of §5.3: a prefetch solver
// (NoPrefetch for No+Pr, which caches on demand only) combined with a
// sub-arbitration for victim ties, and for sized items the order a demand
// fetch evicts in.
type CachePlanner struct {
	Label    string
	Solver   Policy
	Sub      core.SubArbitration
	Ordering core.VictimOrder // demand victims by size; either order is Figure 6's at unit sizes
}

// Fig7Planners returns the five policies of Figure 7 in the paper's order:
// No+Pr, KP+Pr, SKP+Pr, SKP+Pr+LFU, SKP+Pr+DS. The SKP variants use the
// given delta mode.
func Fig7Planners(mode core.DeltaMode) []CachePlanner {
	skp := SKPPolicy{Mode: mode}
	return []CachePlanner{
		{Label: "No+Pr", Solver: NoPrefetch{}, Sub: core.SubNone},
		{Label: "KP+Pr", Solver: KPPolicy{}, Sub: core.SubNone},
		{Label: "SKP+Pr", Solver: skp, Sub: core.SubNone},
		{Label: "SKP+Pr+LFU", Solver: skp, Sub: core.SubLFU},
		{Label: "SKP+Pr+DS", Solver: skp, Sub: core.SubDS},
	}
}

// CacheResult aggregates one policy run at one cache size.
type CacheResult struct {
	Policy    string
	CacheSize int               // slots, or size units when the trace has Sizes
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
// v_s, the planner's Solver plans over the non-cached successors of s
// (TotalProb = 1 per Eq. 9's universe), Pr-arbitration admits a non-empty
// plan's prefetches against the cache, the request States[k+1] arrives, and a miss demand-
// fetches with a mandatory victim. Per-item request counts over the walk
// drive LFU/DS.
//
// When the trace has Sizes, cacheSize is a capacity in size units, one
// prefetch or demand fetch may evict several items (core.ArbitrateSized,
// core.DemandVictimsSized), and an item larger than the whole cache is
// never cached, so its misses always pay full price, as at a real proxy.
func RunPrefetchCache(trace *MarkovTrace, planner CachePlanner, cacheSize int, opts CacheOptions) (CacheResult, error) {
	if trace == nil || len(trace.States) < 2 {
		return CacheResult{}, fmt.Errorf("%w: empty trace", ErrBadSim)
	}
	if cacheSize <= 0 {
		return CacheResult{}, fmt.Errorf("%w: cache size %d", ErrBadSim, cacheSize)
	}
	if planner.Solver == nil {
		return CacheResult{}, fmt.Errorf("%w: planner %q has no solver", ErrBadSim, planner.Label)
	}
	sizes := trace.Sizes
	if sizes == nil {
		sizes = make([]int64, len(trace.Retrievals))
		for i := range sizes {
			sizes[i] = 1
		}
	}
	if len(sizes) != len(trace.Retrievals) {
		return CacheResult{}, fmt.Errorf("%w: %d sizes for %d items", ErrBadSim, len(sizes), len(trace.Retrievals))
	}
	for i, s := range sizes {
		if s <= 0 {
			return CacheResult{}, fmt.Errorf("%w: item %d size %d", ErrBadSim, i, s)
		}
	}
	c := newItemCache(int64(cacheSize), len(sizes))
	res := CacheResult{Policy: planner.Label, CacheSize: cacheSize}
	// freq_i counts every request of the walk, cached or not, so an
	// evicted and re-fetched item keeps its history (WATCHMAN-style
	// delay-saving needs this).
	freq := make([]int64, len(trace.Retrievals))
	// prob holds P for the current state's successors and 0 elsewhere;
	// each round sets and then clears its own entries.
	prob := make([]float64, len(trace.Retrievals))
	retrOf := func(id int) float64 { return trace.Retrievals[id] }
	var entries []core.SizedEntry // the cache snapshot, reused across rounds
	snapshot := func() []core.SizedEntry {
		entries = c.entries(entries[:0], prob, trace.Retrievals, freq)
		return entries
	}

	tr := obs.Active(opts.Tracer)
	var now float64 // virtual clock; advances by viewing + access per round
	if tr != nil {
		ev := obs.Ev(0, obs.KindTrack, opts.Track)
		ev.Note = planner.Label
		tr.Emit(ev)
	}
	traceEvict := func(at float64, round, id int) {
		if tr != nil {
			ev := obs.Ev(at, obs.KindCacheEvict, opts.Track)
			ev.Round = round
			ev.Page = id
			tr.Emit(ev)
		}
	}

	for k := 0; k+1 < len(trace.States); k++ {
		s := trace.States[k]
		requested := trace.States[k+1]
		v := trace.Chain.Viewing(s)
		succ, probs := trace.Chain.Successors(s)
		for i, id := range succ {
			prob[id] = probs[i]
		}

		if tr != nil {
			ev := obs.Ev(now, obs.KindRoundStart, opts.Track)
			ev.Round = k + 1
			ev.Viewing = v
			tr.Emit(ev)
		}

		var candidates []core.Item
		for i, id := range succ {
			if !c.contains(id) && sizes[id] <= c.capacity {
				candidates = append(candidates, core.Item{ID: id, Prob: probs[i], Retrieval: trace.Retrievals[id]})
			}
		}
		plan, err := planner.Solver.Plan(core.Problem{Items: candidates, Viewing: v, TotalProb: 1}, nil)
		if err != nil {
			return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
		}
		var accepted core.Plan
		if len(plan.Items) > 0 {
			sized := make([]core.SizedCandidate, len(plan.Items))
			for i, it := range plan.Items {
				sized[i] = core.SizedCandidate{Item: it, Size: sizes[it.ID]}
			}
			arb, err := core.ArbitrateSized(sized, snapshot(), c.free(), planner.Sub)
			if err != nil {
				return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
			}
			// Evict every victim before inserting anything: with sizes, a
			// later item may fill bytes an earlier item's victims freed.
			for _, id := range arb.Ejected {
				if err := c.evict(id); err != nil {
					return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
				}
			}
			accepted.Items = make([]core.Item, len(arb.Accepted))
			for i, sc := range arb.Accepted {
				for _, id := range arb.Victims[i] {
					traceEvict(now, k+1, id)
				}
				if err := c.insert(sc.ID, sc.Size); err != nil {
					return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
				}
				if tr != nil {
					ev := obs.Ev(now, obs.KindSpecIssue, opts.Track)
					ev.Round = k + 1
					ev.Page = sc.ID
					ev.Prob = sc.Prob
					ev.Service = sc.Retrieval
					tr.Emit(ev)
				}
				accepted.Items[i] = sc.Item
			}
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
				ev.Prob = prob[requested]
				tr.Emit(ev)
			}
		case c.contains(requested):
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
			if need := sizes[requested]; need <= c.capacity {
				if need > c.free() {
					victims, ok := core.DemandVictimsSized(snapshot(), need, c.free(), planner.Sub, planner.Ordering)
					if !ok {
						return CacheResult{}, fmt.Errorf("round %d: no room for item %d", k, requested)
					}
					for _, id := range victims {
						if err := c.evict(id); err != nil {
							return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
						}
						traceEvict(reqAt, k+1, id)
					}
				}
				if err := c.insert(requested, need); err != nil {
					return CacheResult{}, fmt.Errorf("round %d: %w", k, err)
				}
			}
		}

		for _, id := range succ {
			prob[id] = 0
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

// itemCache is the replay's cache: a capacity in size units and each
// item's cached size by id (0: not cached), so probes are array reads
// and a snapshot walks the ids in order without a sort.
type itemCache struct {
	capacity, used int64
	size           []int64
}

func newItemCache(capacity int64, items int) *itemCache {
	return &itemCache{capacity: capacity, size: make([]int64, items)}
}

func (c *itemCache) contains(id int) bool { return c.size[id] > 0 }
func (c *itemCache) free() int64          { return c.capacity - c.used }

func (c *itemCache) insert(id int, size int64) error {
	if c.contains(id) {
		return fmt.Errorf("%w: insert of cached item %d", ErrBadSim, id)
	}
	if size > c.free() {
		return fmt.Errorf("%w: insert of size %d with %d free", ErrBadSim, size, c.free())
	}
	c.size[id] = size
	c.used += size
	return nil
}

// entries appends the cache's snapshot for core's arbitration to buf, in
// id order: P_d is the next-access probability (zero for
// non-candidates), freq the item's access count over the walk so far.
func (c *itemCache) entries(buf []core.SizedEntry, prob, retrievals []float64, freq []int64) []core.SizedEntry {
	for id, size := range c.size {
		if size > 0 {
			buf = append(buf, core.SizedEntry{
				CacheEntry: core.CacheEntry{ID: id, Prob: prob[id], Retrieval: retrievals[id], Freq: freq[id]},
				Size:       size,
			})
		}
	}
	return buf
}

func (c *itemCache) evict(id int) error {
	if !c.contains(id) {
		return fmt.Errorf("%w: evict of non-cached item %d", ErrBadSim, id)
	}
	c.used -= c.size[id]
	c.size[id] = 0
	return nil
}
