package sim

import (
	"testing"

	"prefetch/internal/core"
	"prefetch/internal/rng"
)

func sizedSetup(t *testing.T, seed uint64, states, requests int) (*MarkovTrace, []int64) {
	t.Helper()
	trace := buildTrace(t, seed, states, requests)
	r := rng.New(seed ^ 0x512ED)
	return trace, BuildSizes(r, trace.Retrievals)
}

func TestBuildSizesCorrelated(t *testing.T) {
	r := rng.New(1)
	retr := []float64{1, 10, 30}
	sizes := BuildSizes(r, retr)
	if len(sizes) != 3 {
		t.Fatalf("len %d", len(sizes))
	}
	for i, s := range sizes {
		if s < 1 {
			t.Fatalf("size[%d] = %d", i, s)
		}
		lo := int64(retr[i]*0.75) - 1
		hi := int64(retr[i]*1.25) + 1
		if s < lo || s > hi {
			t.Fatalf("size[%d] = %d outside jitter band [%d,%d]", i, s, lo, hi)
		}
	}
}

func TestRunSizedPrefetchCacheBasics(t *testing.T) {
	trace, sizes := sizedSetup(t, 601, 40, 3000)
	var totalBytes int64
	for _, s := range sizes {
		totalBytes += s
	}
	planners := []SizedPlanner{
		{Label: "no-prefetch", Solver: nil, Sub: core.SubDS, Ordering: ByDensity},
		{Label: "skp-density", Solver: SKPPolicy{}, Sub: core.SubDS, Ordering: ByDensity},
		{Label: "skp-value", Solver: SKPPolicy{}, Sub: core.SubDS, Ordering: ByValue},
	}
	var means []float64
	for _, pl := range planners {
		res, err := RunSizedPrefetchCache(trace, sizes, pl, totalBytes/3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != 3000 {
			t.Fatalf("%s: %d requests", pl.Label, res.Requests)
		}
		means = append(means, res.Access.Mean())
	}
	if means[1] >= means[0] {
		t.Fatalf("sized SKP (%v) did not beat no-prefetch (%v)", means[1], means[0])
	}
}

func TestRunSizedPrefetchCacheFullCache(t *testing.T) {
	trace, sizes := sizedSetup(t, 602, 25, 3000)
	var totalBytes int64
	for _, s := range sizes {
		totalBytes += s
	}
	pl := SizedPlanner{Label: "skp", Solver: SKPPolicy{}, Sub: core.SubDS, Ordering: ByDensity}
	res, err := RunSizedPrefetchCache(trace, sizes, pl, totalBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate() < 0.9 {
		t.Fatalf("hit rate %v with an everything-fits cache", res.HitRate())
	}
}

func TestRunSizedPrefetchCacheOversizedItemNeverCached(t *testing.T) {
	trace, sizes := sizedSetup(t, 603, 10, 500)
	// Make item 0 bigger than the whole cache.
	sizes[0] = 1 << 40
	pl := SizedPlanner{Label: "skp", Solver: SKPPolicy{}, Sub: core.SubNone, Ordering: ByDensity}
	if _, err := RunSizedPrefetchCache(trace, sizes, pl, 100); err != nil {
		t.Fatalf("oversized item broke the run: %v", err)
	}
}

func TestRunSizedPrefetchCacheValidation(t *testing.T) {
	trace, sizes := sizedSetup(t, 604, 10, 100)
	pl := SizedPlanner{Label: "x", Solver: nil, Sub: core.SubNone, Ordering: ByDensity}
	if _, err := RunSizedPrefetchCache(nil, sizes, pl, 100); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := RunSizedPrefetchCache(trace, sizes[:2], pl, 100); err == nil {
		t.Fatal("size/item mismatch accepted")
	}
	if _, err := RunSizedPrefetchCache(trace, sizes, pl, 0); err == nil {
		t.Fatal("zero-byte cache accepted")
	}
	bad := append([]int64(nil), sizes...)
	bad[3] = 0
	if _, err := RunSizedPrefetchCache(trace, bad, pl, 100); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestSizedVictimOrderString(t *testing.T) {
	if ByDensity.String() != "by-density" || ByValue.String() != "by-value" {
		t.Fatal("order names wrong")
	}
}

func TestSizedCacheInvariants(t *testing.T) {
	c := newSizedCache(10)
	if err := c.insert(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.insert(1, 4); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if err := c.insert(2, 7); err == nil {
		t.Fatal("over-capacity insert accepted")
	}
	if err := c.insert(2, 6); err != nil {
		t.Fatal(err)
	}
	if c.free() != 0 {
		t.Fatalf("free = %d", c.free())
	}
	if err := c.evict(1); err != nil {
		t.Fatal(err)
	}
	if err := c.evict(1); err == nil {
		t.Fatal("double evict accepted")
	}
	if c.free() != 4 {
		t.Fatalf("free = %d after evict", c.free())
	}
}

func TestEvictForDemandOrdering(t *testing.T) {
	// Two victims with equal Pr value (0.1 × 10 = 1.0 each): the big one
	// is cheaper per byte, so the density order evicts it first and stops;
	// the value order ties, falls to the ID tie-break, evicts the small
	// item first (not enough bytes) and must take both.
	probOf := map[int]float64{1: 0.1, 2: 0.1}
	retrOf := func(id int) float64 { return 10 }

	mk := func() *sizedCache {
		c := newSizedCache(10)
		if err := c.insert(1, 2); err != nil {
			t.Fatal(err)
		}
		if err := c.insert(2, 8); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := mk()
	if err := c.evictForDemand(5, probOf, retrOf, make([]int64, 3), core.SubNone, ByDensity); err != nil {
		t.Fatal(err)
	}
	if c.contains(2) || !c.contains(1) {
		t.Fatal("density order should evict the big zero-value item first")
	}
	c = mk()
	if err := c.evictForDemand(5, probOf, retrOf, make([]int64, 3), core.SubNone, ByValue); err != nil {
		t.Fatal(err)
	}
	// Value order with a 0-0 tie evicts id 1 (2 bytes) first, which is not
	// enough, then id 2: both gone.
	if c.contains(1) || c.contains(2) {
		t.Fatal("value order should have evicted both items")
	}
}
