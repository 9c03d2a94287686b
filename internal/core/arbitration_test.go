package core

import (
	"fmt"
	"reflect"
	"testing"

	"prefetch/internal/rng"
)

func TestArbitrateBasicAdmission(t *testing.T) {
	// Candidate worth 2.0 vs cache victims worth 0.5 and 0: both admitted
	// against the cheapest victims in order.
	cand := Plan{Items: []Item{
		{ID: 10, Prob: 0.5, Retrieval: 4}, // value 2.0
		{ID: 11, Prob: 0.2, Retrieval: 3}, // value 0.6
	}}
	cache := []CacheEntry{
		{ID: 1, Prob: 0.1, Retrieval: 5, Freq: 3}, // value 0.5
		{ID: 2, Prob: 0, Retrieval: 9, Freq: 1},   // value 0
	}
	res := Arbitrate(cand, cache, 0, SubNone)
	if res.Accepted.Len() != 2 {
		t.Fatalf("accepted %d items, want 2", res.Accepted.Len())
	}
	// First admission (value 2.0) takes the zero-value victim (id 2); the
	// second (0.6) takes id 1 (value 0.5 < 0.6).
	victims := map[int]int{}
	for i, it := range res.Accepted.Items {
		victims[it.ID] = res.Victims[i]
	}
	if victims[10] != 2 || victims[11] != 1 {
		t.Fatalf("victims = %v, want 10→2, 11→1", victims)
	}
}

func TestArbitrateRejectsUnworthy(t *testing.T) {
	cand := Plan{Items: []Item{{ID: 10, Prob: 0.1, Retrieval: 2}}} // value 0.2
	cache := []CacheEntry{{ID: 1, Prob: 0.3, Retrieval: 5}}        // value 1.5
	res := Arbitrate(cand, cache, 0, SubNone)
	if res.Accepted.Len() != 0 {
		t.Fatalf("unworthy candidate admitted: %v", res.Accepted)
	}
}

func TestArbitrateRejectionBlocksTheRest(t *testing.T) {
	// Figure 6 breaks at the first rejection. Because admission runs in
	// descending candidate value while the victim pool only gets more
	// expensive (cheapest victims are consumed first), rejection is monotone
	// and nothing after the first rejection can be admitted either.
	cand := Plan{Items: []Item{
		{ID: 10, Prob: 0.9, Retrieval: 10}, // 9.0, admitted against value 0
		{ID: 11, Prob: 0.1, Retrieval: 1},  // 0.1, rejected vs victim 0.15
		{ID: 12, Prob: 0.09, Retrieval: 1}, // 0.09, after the break
	}}
	cache := []CacheEntry{
		{ID: 1, Prob: 0, Retrieval: 4},    // value 0
		{ID: 2, Prob: 0.04, Retrieval: 5}, // value 0.2
		{ID: 3, Prob: 0.03, Retrieval: 5}, // value 0.15
	}
	res := Arbitrate(cand, cache, 0, SubNone)
	if res.Accepted.Len() != 1 || res.Accepted.Items[0].ID != 10 {
		t.Fatalf("accepted = %v, want only item 10", res.Accepted)
	}
}

func TestArbitrateEqualValueNotAdmitted(t *testing.T) {
	// Worthiness is strict: P_f r_f must exceed P_d r_d.
	cand := Plan{Items: []Item{{ID: 10, Prob: 0.5, Retrieval: 2}}} // 1.0
	cache := []CacheEntry{{ID: 1, Prob: 0.2, Retrieval: 5}}        // 1.0
	res := Arbitrate(cand, cache, 0, SubNone)
	if res.Accepted.Len() != 0 {
		t.Fatal("candidate equal to victim value must not be admitted")
	}
}

func TestArbitrateFreeSlots(t *testing.T) {
	cand := Plan{Items: []Item{
		{ID: 10, Prob: 0.4, Retrieval: 5},
		{ID: 11, Prob: 0.3, Retrieval: 5},
	}}
	cache := []CacheEntry{{ID: 1, Prob: 0.9, Retrieval: 9}} // very valuable
	res := Arbitrate(cand, cache, 2, SubNone)
	if res.Accepted.Len() != 2 {
		t.Fatalf("free slots not used: %v", res.Accepted)
	}
	for _, v := range res.Victims {
		if v != NoVictim {
			t.Fatalf("free-slot admission evicted %d", v)
		}
	}
	if len(res.Ejected()) != 0 {
		t.Fatal("Ejected() should be empty with free slots")
	}
	// One free slot: the higher-value candidate gets it; the other must
	// contest the (unbeatable) cached item and lose.
	res = Arbitrate(cand, cache, 1, SubNone)
	if res.Accepted.Len() != 1 || res.Accepted.Items[0].ID != 10 {
		t.Fatalf("with 1 free slot accepted = %v, want item 10 only", res.Accepted)
	}
}

func TestArbitrateEmptyCacheNoFreeSlots(t *testing.T) {
	cand := Plan{Items: []Item{{ID: 10, Prob: 0.5, Retrieval: 4}}}
	res := Arbitrate(cand, nil, 0, SubNone)
	if res.Accepted.Len() != 0 {
		t.Fatal("admission into an empty cache with no free slots")
	}
}

func TestArbitrateCanonicalOutputOrder(t *testing.T) {
	// Admission iterates by descending P·r but the returned plan must be in
	// canonical prefetch order (descending P).
	cand := Plan{Items: []Item{
		{ID: 10, Prob: 0.3, Retrieval: 10}, // value 3.0
		{ID: 11, Prob: 0.6, Retrieval: 2},  // value 1.2
	}}
	res := Arbitrate(cand, nil, 2, SubNone)
	if res.Accepted.Len() != 2 {
		t.Fatal("both should be admitted into free slots")
	}
	if res.Accepted.Items[0].ID != 11 || res.Accepted.Items[1].ID != 10 {
		t.Fatalf("accepted order = %v, want canonical [11 10]", res.Accepted.IDs())
	}
}

func TestSubArbitrationLFUvsDS(t *testing.T) {
	// Two zero-Pr victims: id 1 rarely used but huge retrieval; id 2 used
	// more but cheap to refetch. LFU evicts id 1 (lower freq); DS evicts
	// id 2 (lower freq*r = 6 vs 20).
	cache := []CacheEntry{
		{ID: 1, Prob: 0, Retrieval: 10, Freq: 2}, // ds = 20
		{ID: 2, Prob: 0, Retrieval: 2, Freq: 3},  // ds = 6
	}
	if id, ok := DemandVictim(cache, SubLFU); !ok || id != 1 {
		t.Fatalf("LFU victim = %v, want 1", id)
	}
	if id, ok := DemandVictim(cache, SubDS); !ok || id != 2 {
		t.Fatalf("DS victim = %v, want 2", id)
	}
	if id, ok := DemandVictim(cache, SubNone); !ok || id != 1 {
		t.Fatalf("SubNone victim = %v, want lowest id 1", id)
	}
}

func TestDemandVictimPrDominatesSub(t *testing.T) {
	// Pr-arbitration comes first: the item with lower P·r is evicted no
	// matter what the sub-policy prefers.
	cache := []CacheEntry{
		{ID: 1, Prob: 0.5, Retrieval: 10, Freq: 0}, // value 5, freq 0
		{ID: 2, Prob: 0, Retrieval: 10, Freq: 100}, // value 0, freq 100
	}
	for _, sub := range []SubArbitration{SubNone, SubLFU, SubDS} {
		if id, ok := DemandVictim(cache, sub); !ok || id != 2 {
			t.Fatalf("sub=%v victim = %v, want 2 (lowest Pr)", sub, id)
		}
	}
}

func TestDemandVictimEmpty(t *testing.T) {
	if _, ok := DemandVictim(nil, SubNone); ok {
		t.Fatal("victim from empty cache")
	}
}

func TestSubArbitrationStrings(t *testing.T) {
	if SubNone.String() != "none" || SubLFU.String() != "lfu" || SubDS.String() != "ds" {
		t.Fatal("SubArbitration names wrong")
	}
	if SubArbitration(42).String() == "" {
		t.Fatal("unknown sub-arbitration must still render")
	}
	if DeltaTheorem3.String() != "theorem3" || DeltaPaperTail.String() != "paper-tail" {
		t.Fatal("DeltaMode names wrong")
	}
	if DeltaMode(42).String() == "" {
		t.Fatal("unknown delta mode must still render")
	}
}

// Arbitration invariants on random inputs: victims are distinct cache
// members, |victims| = |accepted| − freeSlotsUsed, accepted ⊆ candidates,
// and every accepted item beats its victim (when it has one).
func TestArbitrateInvariants(t *testing.T) {
	r := rng.New(51)
	for iter := 0; iter < 300; iter++ {
		nc := r.IntRange(0, 8)
		cand := Plan{}
		for i := 0; i < nc; i++ {
			cand.Items = append(cand.Items, Item{
				ID:        100 + i,
				Prob:      r.Float64(),
				Retrieval: float64(r.IntRange(1, 30)),
			})
		}
		ncache := r.IntRange(0, 8)
		cache := make([]CacheEntry, 0, ncache)
		for i := 0; i < ncache; i++ {
			prob := 0.0
			if r.Float64() < 0.3 {
				prob = r.Float64() * 0.5
			}
			cache = append(cache, CacheEntry{
				ID:        i,
				Prob:      prob,
				Retrieval: float64(r.IntRange(1, 30)),
				Freq:      int64(r.IntRange(0, 20)),
			})
		}
		free := r.IntRange(0, 3)
		res := Arbitrate(cand, cache, free, SubArbitration(r.IntRange(0, 2)))

		if len(res.Victims) != res.Accepted.Len() {
			t.Fatalf("iter %d: victims/accepted length mismatch", iter)
		}
		seenVictim := map[int]bool{}
		cacheByID := map[int]CacheEntry{}
		for _, e := range cache {
			cacheByID[e.ID] = e
		}
		candByID := map[int]Item{}
		for _, it := range cand.Items {
			candByID[it.ID] = it
		}
		freeUsed := 0
		for i, it := range res.Accepted.Items {
			if _, ok := candByID[it.ID]; !ok {
				t.Fatalf("iter %d: accepted non-candidate %d", iter, it.ID)
			}
			v := res.Victims[i]
			if v == NoVictim {
				freeUsed++
				continue
			}
			e, ok := cacheByID[v]
			if !ok {
				t.Fatalf("iter %d: victim %d not in cache", iter, v)
			}
			if seenVictim[v] {
				t.Fatalf("iter %d: victim %d used twice", iter, v)
			}
			seenVictim[v] = true
			if it.Prob*it.Retrieval <= e.prValue() {
				t.Fatalf("iter %d: accepted item %d (%.4g) does not beat victim %d (%.4g)",
					iter, it.ID, it.Prob*it.Retrieval, v, e.prValue())
			}
		}
		if freeUsed > free {
			t.Fatalf("iter %d: used %d free slots, only %d available", iter, freeUsed, free)
		}
	}
}

func TestArbitrateSizedBasics(t *testing.T) {
	// One big candidate needs two victims.
	cands := []SizedCandidate{{Item: Item{ID: 10, Prob: 0.8, Retrieval: 10}, Size: 10}}
	cache := []SizedEntry{
		{CacheEntry: CacheEntry{ID: 1, Prob: 0, Retrieval: 2}, Size: 6},
		{CacheEntry: CacheEntry{ID: 2, Prob: 0.01, Retrieval: 2}, Size: 6},
	}
	res, err := ArbitrateSized(cands, cache, 0, SubNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 || len(res.Ejected) != 2 {
		t.Fatalf("accepted %d ejected %d, want 1/2", len(res.Accepted), len(res.Ejected))
	}
	if res.FreeAfter != 2 {
		t.Fatalf("FreeAfter = %d, want 2 (12 freed − 10 used)", res.FreeAfter)
	}
}

func TestArbitrateSizedWorthiness(t *testing.T) {
	// Victim set value (0.9) exceeds candidate value (0.8): reject.
	cands := []SizedCandidate{{Item: Item{ID: 10, Prob: 0.4, Retrieval: 2}, Size: 10}}
	cache := []SizedEntry{
		{CacheEntry: CacheEntry{ID: 1, Prob: 0.09, Retrieval: 10}, Size: 10},
	}
	res, err := ArbitrateSized(cands, cache, 0, SubNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 0 {
		t.Fatal("candidate should not displace a more valuable victim set")
	}
}

func TestArbitrateSizedFreeBytes(t *testing.T) {
	cands := []SizedCandidate{{Item: Item{ID: 10, Prob: 0.4, Retrieval: 2}, Size: 4}}
	res, err := ArbitrateSized(cands, nil, 4, SubNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 || len(res.Ejected) != 0 || res.FreeAfter != 0 {
		t.Fatalf("free-bytes admission failed: %+v", res)
	}
	// Cannot fit even after evicting everything.
	cands[0].Size = 100
	res, err = ArbitrateSized(cands, nil, 4, SubNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 0 {
		t.Fatal("oversized candidate admitted")
	}
}

func TestArbitrateSizedValidation(t *testing.T) {
	bad := []SizedCandidate{{Item: Item{ID: 1, Prob: 0.5, Retrieval: 2}, Size: 0}}
	if _, err := ArbitrateSized(bad, nil, 0, SubNone); err == nil {
		t.Fatal("zero-size candidate accepted")
	}
	cands := []SizedCandidate{{Item: Item{ID: 1, Prob: 0.5, Retrieval: 2}, Size: 1}}
	badCache := []SizedEntry{{CacheEntry: CacheEntry{ID: 2}, Size: -1}}
	if _, err := ArbitrateSized(cands, badCache, 0, SubNone); err == nil {
		t.Fatal("negative-size cache entry accepted")
	}
}

// Equal sizes must reduce the sized arbitration to the classic one, and
// the sized demand eviction to DemandVictim: the same admissions, each
// with the same victim, and the same demand victim under either order.
func TestArbitrateSizedReducesToEqualSize(t *testing.T) {
	check := func(name string, cand Plan, cache []CacheEntry, sub SubArbitration) {
		t.Helper()
		var sized []SizedCandidate
		for _, it := range cand.Items {
			sized = append(sized, SizedCandidate{Item: it, Size: 1})
		}
		var sizedEntries []SizedEntry
		for _, e := range cache {
			sizedEntries = append(sizedEntries, SizedEntry{CacheEntry: e, Size: 1})
		}
		a := Arbitrate(cand, cache, 0, sub)
		b, err := ArbitrateSized(sized, sizedEntries, 0, sub)
		if err != nil {
			t.Fatal(err)
		}
		if a.Accepted.Len() != len(b.Accepted) {
			t.Fatalf("%s: equal-size admissions differ: classic %d vs sized %d",
				name, a.Accepted.Len(), len(b.Accepted))
		}
		if len(a.Ejected()) != len(b.Ejected) {
			t.Fatalf("%s: equal-size ejections differ: classic %v vs sized %v", name, a.Ejected(), b.Ejected)
		}
		for i, it := range a.Accepted.Items {
			want := []int{a.Victims[i]}
			if a.Victims[i] == NoVictim {
				want = nil
			}
			if b.Accepted[i].Item != it || len(b.Victims[i]) != len(want) || (want != nil && b.Victims[i][0] != want[0]) {
				t.Fatalf("%s: admission %d: classic %v evicting %v, sized %v evicting %v",
					name, i, it, want, b.Accepted[i].Item, b.Victims[i])
			}
		}
		for _, order := range []VictimOrder{ByDensity, ByValue} {
			want, wantOK := DemandVictim(cache, sub)
			got, ok := DemandVictimsSized(sizedEntries, 1, 0, sub, order)
			if ok != wantOK || (ok && (len(got) != 1 || got[0] != want)) {
				t.Fatalf("%s, %s: demand victims %v (%v), DemandVictim %d (%v)", name, order, got, ok, want, wantOK)
			}
		}
	}

	r := rng.New(52)
	for iter := 0; iter < 200; iter++ {
		nc := r.IntRange(0, 6)
		cand := Plan{}
		for i := 0; i < nc; i++ {
			cand.Items = append(cand.Items, Item{ID: 100 + i, Prob: r.Float64(), Retrieval: float64(r.IntRange(1, 30))})
		}
		ncache := r.IntRange(0, 6)
		var cache []CacheEntry
		for i := 0; i < ncache; i++ {
			cache = append(cache, CacheEntry{ID: i, Prob: r.Float64() * 0.3, Retrieval: float64(r.IntRange(1, 30)), Freq: int64(r.IntRange(0, 9))})
		}
		for _, sub := range []SubArbitration{SubNone, SubLFU, SubDS} {
			check(fmt.Sprintf("iter %d, %s", iter, sub), cand, cache, sub)
		}
	}

	// A near tie: the two victims' P·r differ by about 1e-13, inside
	// Figure 6's tolerance, so the sub-arbitration decides, and it
	// disagrees with the Pr order (item 1 is cheaper by Pr, item 2 by
	// frequency and by delay-saving).
	cand := Plan{Items: []Item{{ID: 10, Prob: 0.5, Retrieval: 10}}}
	cache := []CacheEntry{
		{ID: 1, Prob: 0.1, Retrieval: 10, Freq: 9},
		{ID: 2, Prob: 0.1 + 1e-14, Retrieval: 10, Freq: 1},
	}
	if d := cache[1].prValue() - cache[0].prValue(); d <= 1e-15 || d >= 1e-12 {
		t.Fatalf("near-tie gap %g, want between 1e-15 and 1e-12", d)
	}
	for _, sub := range []SubArbitration{SubLFU, SubDS} {
		if got := Arbitrate(cand, cache, 0, sub).Ejected(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("near tie, %s: classic evicts %v, want [2]", sub, got)
		}
		check("near tie, "+sub.String(), cand, cache, sub)
	}
}

// TestDemandVictimsSizedOrdering: two victims with equal Pr value
// (0.1 × 10 = 1.0 each). The big one is cheaper per byte, so the density
// order evicts it first and stops; the value order ties, falls to the ID
// tie-break, evicts the small item first (not enough bytes) and must take
// both.
func TestDemandVictimsSizedOrdering(t *testing.T) {
	cache := []SizedEntry{
		{CacheEntry: CacheEntry{ID: 1, Prob: 0.1, Retrieval: 10}, Size: 2},
		{CacheEntry: CacheEntry{ID: 2, Prob: 0.1, Retrieval: 10}, Size: 8},
	}
	if got, ok := DemandVictimsSized(cache, 5, 0, SubNone, ByDensity); !ok || !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("density order evicts %v (%v), want [2]", got, ok)
	}
	if got, ok := DemandVictimsSized(cache, 5, 0, SubNone, ByValue); !ok || !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("value order evicts %v (%v), want [1 2]", got, ok)
	}
	if got, ok := DemandVictimsSized(cache, 5, 5, SubNone, ByValue); !ok || len(got) != 0 {
		t.Fatalf("an item that fits evicts %v (%v)", got, ok)
	}
	if _, ok := DemandVictimsSized(cache, 11, 0, SubNone, ByDensity); ok {
		t.Fatal("an item larger than the cache found room")
	}
}

func TestVictimOrderString(t *testing.T) {
	if ByDensity.String() != "by-density" || ByValue.String() != "by-value" {
		t.Fatal("order names wrong")
	}
}

func TestGainWithCacheArbitrationImproves(t *testing.T) {
	// End-to-end §5 sanity: running SKP over non-cached candidates and
	// arbitrating yields a non-negative Eq. 9 gain when every admitted item
	// strictly beats its victim and the stretch is zero.
	p := Problem{Items: []Item{
		{ID: 0, Prob: 0.45, Retrieval: 6},
		{ID: 1, Prob: 0.35, Retrieval: 4},
		{ID: 2, Prob: 0.15, Retrieval: 8},
		{ID: 3, Prob: 0.05, Retrieval: 9},
	}, Viewing: 10}
	cached := []int{2, 3}
	sub := Problem{Items: []Item{p.Items[0], p.Items[1]}, Viewing: 10, TotalProb: 1}
	plan, _, err := SolveSKP(sub)
	if err != nil {
		t.Fatal(err)
	}
	entries := []CacheEntry{
		{ID: 2, Prob: 0.15, Retrieval: 8, Freq: 1},
		{ID: 3, Prob: 0.05, Retrieval: 9, Freq: 1},
	}
	res := Arbitrate(plan, entries, 0, SubDS)
	g, err := GainWithCache(p, res.Accepted, cached, res.Ejected())
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 {
		t.Fatalf("arbitrated gain = %v, want positive", g)
	}
}
