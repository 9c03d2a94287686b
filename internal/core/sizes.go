package core

import (
	"fmt"
	"sort"
)

// This file implements the non-uniform item size extension (paper §6: "we
// assume uniform size for all items. We are currently addressing this
// limitation"). With sizes, one prefetched item may need several victims —
// or a fraction of one slot — so |F| = |D| no longer holds. Victim sets are
// assembled greedily, cheapest first, and a prefetch candidate is admitted
// only if the total Pr-value it evicts is strictly below its own, the
// natural generalisation of Figure 6's worthiness test (stretch assumed
// zero during arbitration, as in the paper). At unit sizes both functions
// here choose exactly what Arbitrate and DemandVictim choose.

// SizedEntry is a cache entry with a size, for the non-uniform extension.
type SizedEntry struct {
	CacheEntry
	Size int64 // bytes (or any consistent unit)
}

// SizedCandidate is a prefetch candidate with a size.
type SizedCandidate struct {
	Item
	Size int64
}

// SizedResult reports the admitted candidates and the victims evicted for
// them. Accepted is in canonical prefetch order, as Arbitrate returns it;
// Victims[i] lists the IDs evicted for Accepted[i] (none when free bytes
// absorbed it), and Ejected all of them in eviction order.
type SizedResult struct {
	Accepted  []SizedCandidate
	Victims   [][]int
	Ejected   []int
	FreeAfter int64 // free bytes remaining after the plan is applied
}

// VictimOrder ranks a demand fetch's victims when item sizes differ.
type VictimOrder int

const (
	// ByDensity evicts the lowest P·r per byte first, and divides the
	// sub-arbitration metric by size too — the GreedyDual-Size
	// generalisation of delay-saving, which is where size-awareness pays.
	ByDensity VictimOrder = iota
	// ByValue evicts the lowest absolute P·r first (size-blind: the
	// natural generalisation of the paper's equal-size rule, which over-
	// protects big low-value items).
	ByValue
)

// String names the order.
func (o VictimOrder) String() string {
	if o == ByValue {
		return "by-value"
	}
	return "by-density"
}

// victimPool is a cache snapshot that gives up its entries cheapest
// first under key.
type victimPool struct {
	entries []SizedEntry
	key     func(SizedEntry) victimKey
}

func newVictimPool(cache []SizedEntry, key func(SizedEntry) victimKey) *victimPool {
	return &victimPool{entries: append([]SizedEntry(nil), cache...), key: key}
}

// pop removes and returns the cheapest entry; ok is false once the pool
// is empty.
func (p *victimPool) pop() (e SizedEntry, ok bool) {
	i := cheapest(p.entries, p.key)
	if i < 0 {
		return SizedEntry{}, false
	}
	e = p.entries[i]
	p.entries = append(p.entries[:i], p.entries[i+1:]...)
	return e, true
}

// ArbitrateSized admits sized candidates against a cache with freeBytes of
// slack, evicting greedily by ascending P_d·r_d per byte (the
// sub-arbitration's absolute metric breaks ties). Candidates are
// considered in descending P_f·r_f, and the scan stops at the first
// rejection, mirroring Figure 6.
func ArbitrateSized(candidates []SizedCandidate, cache []SizedEntry, freeBytes int64, sub SubArbitration) (SizedResult, error) {
	for _, c := range candidates {
		if c.Size <= 0 {
			return SizedResult{}, fmt.Errorf("%w: candidate %d has size %d", ErrBadPlan, c.ID, c.Size)
		}
	}
	for _, e := range cache {
		if e.Size <= 0 {
			return SizedResult{}, fmt.Errorf("%w: cached item %d has size %d", ErrBadPlan, e.ID, e.Size)
		}
	}
	if freeBytes < 0 {
		freeBytes = 0
	}
	pool := newVictimPool(cache, func(e SizedEntry) victimKey { return e.victimKey(sub, float64(e.Size), 1) })

	ordered := make([]SizedCandidate, len(candidates))
	copy(ordered, candidates)
	sort.SliceStable(ordered, func(a, b int) bool { return admitsFirst(ordered[a].Item, ordered[b].Item) })

	res := SizedResult{FreeAfter: freeBytes}
	for _, f := range ordered {
		// Collect victims until the candidate fits, summing their value.
		first := len(res.Ejected)
		var victimValue float64
		var victimBytes int64
		for res.FreeAfter+victimBytes < f.Size {
			v, ok := pool.pop()
			if !ok {
				break
			}
			victimValue += v.prValue()
			victimBytes += v.Size
			res.Ejected = append(res.Ejected, v.ID)
		}
		// Fig. 6 stops at the first candidate the whole cache cannot hold
		// or that is not worth its evictions.
		if res.FreeAfter+victimBytes < f.Size || (victimBytes > 0 && f.Prob*f.Retrieval <= victimValue) {
			res.Ejected = res.Ejected[:first]
			break
		}
		res.FreeAfter += victimBytes - f.Size
		res.Accepted = append(res.Accepted, f)
		res.Victims = append(res.Victims, res.Ejected[first:len(res.Ejected):len(res.Ejected)])
	}
	// Restore the prefetch schedule order, each item keeping its victims.
	sort.Stable(byCanonical(res))
	return res, nil
}

// byCanonical sorts a SizedResult's Accepted, and Victims with it, into
// canonical prefetch order.
type byCanonical SizedResult

func (r byCanonical) Len() int { return len(r.Accepted) }
func (r byCanonical) Less(a, b int) bool {
	return canonicalLess(r.Accepted[a].Item, r.Accepted[b].Item)
}
func (r byCanonical) Swap(a, b int) {
	r.Accepted[a], r.Accepted[b] = r.Accepted[b], r.Accepted[a]
	r.Victims[a], r.Victims[b] = r.Victims[b], r.Victims[a]
}

// DemandVictimsSized returns the victims a demand-fetched item of need
// bytes evicts from a cache with freeBytes of slack, cheapest first under
// order, stopping as soon as the item fits (none if it already does). ok
// is false when evicting everything still leaves too little room. At unit
// sizes with no slack it evicts DemandVictim's one choice.
func DemandVictimsSized(cache []SizedEntry, need, freeBytes int64, sub SubArbitration, order VictimOrder) (victims []int, ok bool) {
	key := func(e SizedEntry) victimKey {
		if order == ByValue {
			return e.victimKey(sub, 1, 1)
		}
		return e.victimKey(sub, float64(e.Size), float64(e.Size))
	}
	pool := newVictimPool(cache, key)
	for freeBytes < need {
		v, ok := pool.pop()
		if !ok {
			return victims, false
		}
		victims = append(victims, v.ID)
		freeBytes += v.Size
	}
	return victims, true
}
