package core

import (
	"fmt"
	"sort"
)

// This file implements Figure 6: integrating the SKP prefetch decision with
// cache replacement. Under the paper's equal-item-size assumption every
// accepted prefetch item must evict exactly one cache victim. Victims are
// chosen by Pr-arbitration — the cached item with the smallest P_d·r_d goes
// first, and a prefetch is admitted only while it is strictly worthier than
// its victim — with an optional sub-arbitration among equal-Pr victims
// (most cached items have P_d = 0 for the next access, so the sub-policy
// does the real work; the paper evaluates LFU and delay-saving DS).

// SubArbitration picks among victims tied on P_d·r_d.
type SubArbitration int

const (
	// SubNone breaks Pr ties deterministically by lowest item ID.
	SubNone SubArbitration = iota
	// SubLFU prefers the least frequently used item (paper's SKP+Pr+LFU).
	SubLFU
	// SubDS prefers the lowest delay-saving profit freq_i·r_i, the
	// simplified WATCHMAN metric (paper's SKP+Pr+DS, best in Fig. 7).
	SubDS
)

// String names the sub-arbitration for logs.
func (s SubArbitration) String() string {
	switch s {
	case SubNone:
		return "none"
	case SubLFU:
		return "lfu"
	case SubDS:
		return "ds"
	default:
		return fmt.Sprintf("SubArbitration(%d)", int(s))
	}
}

// CacheEntry describes one cached item as seen by the arbitration: its
// probability of being the very next access (zero unless it is a candidate),
// its retrieval time, and its access frequency so far.
type CacheEntry struct {
	ID        int
	Prob      float64 // P_d for the next access; 0 for non-candidates
	Retrieval float64 // r_d
	Freq      int64   // accesses observed so far (drives LFU and DS)
}

// prValue is the Pr-arbitration key.
func (e CacheEntry) prValue() float64 { return e.Prob * e.Retrieval }

// victimTie is Figure 6's tie tolerance: Pr-values, and sub-arbitration
// metrics, closer than this are equal, so values that differ only by
// float rounding fall through to the next rule.
const victimTie = 1e-12

// victimKey is a cached item's place in an eviction order: the lowest
// Pr-value goes first, ties fall to the lowest sub-arbitration metric
// (freq under LFU, the delay-saving profit freq·r under DS, none under
// SubNone), and the rest to the lowest ID.
type victimKey struct {
	pr, sub float64
	id      int
}

// victimKey returns e's key under sub, its Pr-value divided by prDiv and
// its sub-metric by subDiv: 1 for the paper's absolute order, the item's
// size for a per-byte one.
func (e CacheEntry) victimKey(sub SubArbitration, prDiv, subDiv float64) victimKey {
	k := victimKey{pr: e.prValue() / prDiv, id: e.ID}
	switch sub {
	case SubLFU:
		k.sub = float64(e.Freq) / subDiv
	case SubDS:
		k.sub = float64(e.Freq) * e.Retrieval / subDiv
	}
	return k
}

// less reports whether a is a strictly better victim than b.
func (a victimKey) less(b victimKey) bool {
	switch {
	case a.pr < b.pr-victimTie:
		return true
	case a.pr > b.pr+victimTie:
		return false
	}
	if d := a.sub - b.sub; d < -victimTie {
		return true
	} else if d > victimTie {
		return false
	}
	return a.id < b.id
}

// cheapest returns the index of the best victim in pool under key, or -1
// if pool is empty. It scans rather than sorts: one victim is usually all
// a round needs.
func cheapest[E any](pool []E, key func(E) victimKey) int {
	best := -1
	var bk victimKey
	for i, e := range pool {
		if k := key(e); best < 0 || k.less(bk) {
			best, bk = i, k
		}
	}
	return best
}

// ArbitrationResult is the outcome of Arbitrate: the admitted prefetch items
// (in canonical prefetch order) and the victims to eject. Victims[i] is the
// ID evicted to make room for Accepted.Items[i]; it is NoVictim when a free
// slot absorbed the item.
type ArbitrationResult struct {
	Accepted Plan
	Victims  []int
}

// NoVictim marks an accepted item that used a free cache slot.
const NoVictim = -1

// Ejected returns only the real victim IDs.
func (r ArbitrationResult) Ejected() []int {
	var out []int
	for _, v := range r.Victims {
		if v != NoVictim {
			out = append(out, v)
		}
	}
	return out
}

// pickVictim returns the index of the best victim in cache per
// Pr-arbitration with the given sub-arbitration, or -1 if cache is empty.
func pickVictim(cache []CacheEntry, sub SubArbitration) int {
	return cheapest(cache, func(e CacheEntry) victimKey { return e.victimKey(sub, 1, 1) })
}

// admitsFirst is the order arbitration considers candidates in: highest
// P_f·r_f first, then lowest ID.
func admitsFirst(a, b Item) bool {
	if va, vb := a.Prob*a.Retrieval, b.Prob*b.Retrieval; va != vb {
		return va > vb
	}
	return a.ID < b.ID
}

// Arbitrate admits candidate prefetch items against the cache per Figure 6.
// Candidates are considered in descending P_f·r_f. Each first consumes a
// free slot if any remain; otherwise it must find a victim d minimising
// P_d·r_d and is admitted only if P_f·r_f > P_d·r_d (for the worthiness test
// the stretch is assumed zero, as in the paper). The first rejection stops
// the scan. The accepted items are returned in canonical prefetch order
// (condition 5), since the admission order is a value order, not a schedule.
func Arbitrate(candidate Plan, cache []CacheEntry, freeSlots int, sub SubArbitration) ArbitrationResult {
	if freeSlots < 0 {
		freeSlots = 0
	}
	// Work on copies: cache shrinks as victims are consumed.
	pool := make([]CacheEntry, len(cache))
	copy(pool, cache)
	byValue := make([]Item, len(candidate.Items))
	copy(byValue, candidate.Items)
	sort.SliceStable(byValue, func(a, b int) bool { return admitsFirst(byValue[a], byValue[b]) })

	var accepted []Item
	var victims []int
	for _, f := range byValue {
		if freeSlots > 0 {
			accepted = append(accepted, f)
			victims = append(victims, NoVictim)
			freeSlots--
			continue
		}
		vi := pickVictim(pool, sub)
		if vi < 0 {
			break // cache exhausted; no room for further prefetches
		}
		if f.Prob*f.Retrieval <= pool[vi].prValue() {
			break // Fig. 6: first unworthy candidate stops the scan
		}
		accepted = append(accepted, f)
		victims = append(victims, pool[vi].ID)
		pool = append(pool[:vi], pool[vi+1:]...)
	}
	// Restore the prefetch schedule order.
	ordered := CanonicalOrder(accepted)
	// Victims stay associated with the admission order; reorder them to
	// match the canonical order so Victims[i] still corresponds to
	// Accepted.Items[i].
	victimOf := make(map[int]int, len(accepted))
	for i, it := range accepted {
		victimOf[it.ID] = victims[i]
	}
	orderedVictims := make([]int, len(ordered))
	for i, it := range ordered {
		orderedVictims[i] = victimOf[it.ID]
	}
	return ArbitrationResult{Accepted: Plan{Items: ordered}, Victims: orderedVictims}
}

// DemandVictim picks the victim for a demand-fetched item, which must evict
// something (paper §5.2: a demand fetch "must have a victim and only
// requires the first condition"). Returns false only for an empty cache.
func DemandVictim(cache []CacheEntry, sub SubArbitration) (int, bool) {
	vi := pickVictim(cache, sub)
	if vi < 0 {
		return 0, false
	}
	return cache[vi].ID, true
}
