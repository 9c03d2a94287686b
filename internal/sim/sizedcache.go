package sim

import (
	"fmt"
	"sort"

	"prefetch/internal/core"
	"prefetch/internal/rng"
	"prefetch/internal/stats"
)

// This file is the end-to-end harness for the non-uniform item size
// extension (paper §6: "we assume uniform size for all items. We are
// currently addressing this limitation"). Item sizes are proportional to
// retrieval times (a unit-bandwidth link), the cache is byte-capacity, and
// prefetch admission uses core.ArbitrateSized. Two victim orderings are
// compared: value-per-byte (size-aware) and absolute value (size-blind),
// plus the no-prefetch baseline.

// SizedVictimOrder selects how eviction candidates are ranked.
type SizedVictimOrder int

const (
	// ByDensity evicts the lowest P·r per byte first (size-aware).
	ByDensity SizedVictimOrder = iota
	// ByValue evicts the lowest absolute P·r first (size-blind: the
	// natural generalisation of the paper's equal-size rule, which over-
	// protects big low-value items).
	ByValue
)

// String names the order.
func (o SizedVictimOrder) String() string {
	if o == ByValue {
		return "by-value"
	}
	return "by-density"
}

// SizedPlanner configures one sized prefetch-cache policy.
type SizedPlanner struct {
	Label    string
	Solver   Policy // nil: demand caching only
	Sub      core.SubArbitration
	Ordering SizedVictimOrder
}

// SizedResultRow aggregates one sized run.
type SizedResultRow struct {
	Policy     string
	CacheBytes int64
	Access     stats.Accumulator
	Hits       int64
	Requests   int64
}

// HitRate returns the fraction of requests answered with zero access time.
func (r SizedResultRow) HitRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Requests)
}

// sizedCache is a byte-capacity cache keyed by item ID.
type sizedCache struct {
	capacity int64
	used     int64
	sizes    map[int]int64
}

func newSizedCache(capacity int64) *sizedCache {
	return &sizedCache{capacity: capacity, sizes: map[int]int64{}}
}

func (c *sizedCache) contains(id int) bool { _, ok := c.sizes[id]; return ok }
func (c *sizedCache) free() int64          { return c.capacity - c.used }

func (c *sizedCache) insert(id int, size int64) error {
	if c.contains(id) {
		return fmt.Errorf("%w: sized insert of cached item %d", ErrBadSim, id)
	}
	if size > c.free() {
		return fmt.Errorf("%w: sized insert of %d bytes with %d free", ErrBadSim, size, c.free())
	}
	c.sizes[id] = size
	c.used += size
	return nil
}

func (c *sizedCache) evict(id int) error {
	size, ok := c.sizes[id]
	if !ok {
		return fmt.Errorf("%w: sized evict of non-cached item %d", ErrBadSim, id)
	}
	delete(c.sizes, id)
	c.used -= size
	return nil
}

// entries snapshots the cache for arbitration, ordered by ID; freq holds
// each item's request count over the walk.
func (c *sizedCache) entries(probOf map[int]float64, retrOf func(int) float64, freq []int64) []core.SizedEntry {
	ids := make([]int, 0, len(c.sizes))
	for id := range c.sizes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]core.SizedEntry, len(ids))
	for i, id := range ids {
		out[i] = core.SizedEntry{
			CacheEntry: core.CacheEntry{ID: id, Prob: probOf[id], Retrieval: retrOf(id), Freq: freq[id]},
			Size:       c.sizes[id],
		}
	}
	return out
}

// evictForDemand frees at least `need` bytes for a demand-fetched item,
// ranking victims per the ordering (Pr value or Pr value per byte, with
// sub-arbitration tie-breaks).
func (c *sizedCache) evictForDemand(need int64, probOf map[int]float64, retrOf func(int) float64, freq []int64, sub core.SubArbitration, order SizedVictimOrder) error {
	if need <= c.free() {
		return nil
	}
	entries := c.entries(probOf, retrOf, freq)
	sort.SliceStable(entries, func(a, b int) bool {
		ka := entries[a].Prob * entries[a].Retrieval
		kb := entries[b].Prob * entries[b].Retrieval
		if order == ByDensity {
			ka /= float64(entries[a].Size)
			kb /= float64(entries[b].Size)
		}
		const tie = 1e-15
		if ka < kb-tie {
			return true
		}
		if ka > kb+tie {
			return false
		}
		// Ties (typically Pr = 0 for non-candidates) fall to the
		// sub-metric. Under ByDensity the sub-metric is also per byte —
		// the GreedyDual-Size generalisation of the paper's delay-saving
		// profit — which is where size-awareness actually pays off.
		switch sub {
		case core.SubLFU:
			fa, fb := float64(entries[a].Freq), float64(entries[b].Freq)
			if order == ByDensity {
				fa /= float64(entries[a].Size)
				fb /= float64(entries[b].Size)
			}
			if fa != fb {
				return fa < fb
			}
		case core.SubDS:
			da := float64(entries[a].Freq) * entries[a].Retrieval
			db := float64(entries[b].Freq) * entries[b].Retrieval
			if order == ByDensity {
				da /= float64(entries[a].Size)
				db /= float64(entries[b].Size)
			}
			if da != db {
				return da < db
			}
		}
		return entries[a].ID < entries[b].ID
	})
	for _, e := range entries {
		if need <= c.free() {
			return nil
		}
		if err := c.evict(e.ID); err != nil {
			return err
		}
	}
	if need <= c.free() {
		return nil
	}
	return fmt.Errorf("%w: item of %d bytes exceeds cache capacity %d", ErrBadSim, need, c.capacity)
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

// RunSizedPrefetchCache replays the Markov trace with byte-sized items
// under the planner. Items too large for the whole cache are never cached
// (their misses always pay full price), mirroring real proxy behaviour.
func RunSizedPrefetchCache(trace *MarkovTrace, sizes []int64, planner SizedPlanner, cacheBytes int64) (SizedResultRow, error) {
	if trace == nil || len(trace.States) < 2 {
		return SizedResultRow{}, fmt.Errorf("%w: empty trace", ErrBadSim)
	}
	if len(sizes) != len(trace.Retrievals) {
		return SizedResultRow{}, fmt.Errorf("%w: %d sizes for %d items", ErrBadSim, len(sizes), len(trace.Retrievals))
	}
	if cacheBytes <= 0 {
		return SizedResultRow{}, fmt.Errorf("%w: cache of %d bytes", ErrBadSim, cacheBytes)
	}
	for i, s := range sizes {
		if s <= 0 {
			return SizedResultRow{}, fmt.Errorf("%w: item %d size %d", ErrBadSim, i, s)
		}
	}
	c := newSizedCache(cacheBytes)
	freq := make([]int64, len(trace.Retrievals)) // as in RunPrefetchCache
	retrOf := func(id int) float64 { return trace.Retrievals[id] }
	res := SizedResultRow{Policy: planner.Label, CacheBytes: cacheBytes}

	for k := 0; k+1 < len(trace.States); k++ {
		s := trace.States[k]
		requested := trace.States[k+1]
		v := trace.Chain.Viewing(s)
		succ, probs := trace.Chain.Successors(s)
		probOf := make(map[int]float64, len(succ))
		for i, id := range succ {
			probOf[id] = probs[i]
		}

		var accepted core.Plan
		if planner.Solver != nil {
			var candidates []core.Item
			for i, id := range succ {
				if !c.contains(id) && sizes[id] <= cacheBytes {
					candidates = append(candidates, core.Item{ID: id, Prob: probs[i], Retrieval: trace.Retrievals[id]})
				}
			}
			plan, err := planner.Solver.Plan(core.Problem{Items: candidates, Viewing: v, TotalProb: 1})
			if err != nil {
				return SizedResultRow{}, fmt.Errorf("round %d: %w", k, err)
			}
			sizedCands := make([]core.SizedCandidate, 0, plan.Len())
			for _, it := range plan.Items {
				sizedCands = append(sizedCands, core.SizedCandidate{Item: it, Size: sizes[it.ID]})
			}
			arb, err := core.ArbitrateSized(sizedCands, c.entries(probOf, retrOf, freq), c.free(), planner.Sub)
			if err != nil {
				return SizedResultRow{}, fmt.Errorf("round %d: %w", k, err)
			}
			for _, id := range arb.Ejected {
				if err := c.evict(id); err != nil {
					return SizedResultRow{}, fmt.Errorf("round %d: %w", k, err)
				}
			}
			var items []core.Item
			for _, sc := range arb.Accepted {
				if err := c.insert(sc.ID, sc.Size); err != nil {
					return SizedResultRow{}, fmt.Errorf("round %d: %w", k, err)
				}
				items = append(items, sc.Item)
			}
			accepted = core.Plan{Items: core.CanonicalOrder(items)}
		}

		st := accepted.Stretch(v)
		var t float64
		switch {
		case accepted.Contains(requested):
			t = core.AccessTime(accepted, v, requested, retrOf)
		case c.contains(requested):
			t = 0
		default:
			t = st + trace.Retrievals[requested]
			if sizes[requested] <= cacheBytes {
				if err := c.evictForDemand(sizes[requested], probOf, retrOf, freq, planner.Sub, planner.Ordering); err != nil {
					return SizedResultRow{}, fmt.Errorf("round %d: %w", k, err)
				}
				if err := c.insert(requested, sizes[requested]); err != nil {
					return SizedResultRow{}, fmt.Errorf("round %d: %w", k, err)
				}
			}
		}
		freq[requested]++
		res.Access.Add(t)
		res.Requests++
		if t == 0 {
			res.Hits++
		}
	}
	return res, nil
}
