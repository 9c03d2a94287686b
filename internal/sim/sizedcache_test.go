package sim

import (
	"testing"

	"prefetch/internal/core"
	"prefetch/internal/rng"
)

// sizedSetup builds a walk whose items carry sizes from BuildSizes.
func sizedSetup(t *testing.T, seed uint64, states, requests int) *MarkovTrace {
	t.Helper()
	trace := buildTrace(t, seed, states, requests)
	trace.Sizes = BuildSizes(rng.New(seed^0x512ED), trace.Retrievals)
	return trace
}

// totalSize is the size of the whole corpus.
func totalSize(trace *MarkovTrace) int {
	var total int64
	for _, s := range trace.Sizes {
		total += s
	}
	return int(total)
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
	trace := sizedSetup(t, 601, 40, 3000)
	planners := []CachePlanner{
		{Label: "no-prefetch", Solver: NoPrefetch{}, Sub: core.SubDS, Ordering: core.ByDensity},
		{Label: "skp-density", Solver: SKPPolicy{}, Sub: core.SubDS, Ordering: core.ByDensity},
		{Label: "skp-value", Solver: SKPPolicy{}, Sub: core.SubDS, Ordering: core.ByValue},
	}
	var means []float64
	for _, pl := range planners {
		res, err := RunPrefetchCache(trace, pl, totalSize(trace)/3, CacheOptions{})
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
	trace := sizedSetup(t, 602, 25, 3000)
	pl := CachePlanner{Label: "skp", Solver: SKPPolicy{}, Sub: core.SubDS, Ordering: core.ByDensity}
	res, err := RunPrefetchCache(trace, pl, totalSize(trace), CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate() < 0.9 {
		t.Fatalf("hit rate %v with an everything-fits cache", res.HitRate())
	}
}

func TestRunSizedPrefetchCacheOversizedItemNeverCached(t *testing.T) {
	trace := sizedSetup(t, 603, 10, 500)
	// Make item 0 bigger than the whole cache.
	trace.Sizes[0] = 1 << 40
	pl := CachePlanner{Label: "skp", Solver: SKPPolicy{}, Sub: core.SubNone, Ordering: core.ByDensity}
	if _, err := RunPrefetchCache(trace, pl, 100, CacheOptions{}); err != nil {
		t.Fatalf("oversized item broke the run: %v", err)
	}
}

func TestRunSizedPrefetchCacheValidation(t *testing.T) {
	trace := sizedSetup(t, 604, 10, 100)
	pl := CachePlanner{Label: "x", Solver: NoPrefetch{}, Sub: core.SubNone, Ordering: core.ByDensity}
	if _, err := RunPrefetchCache(nil, pl, 100, CacheOptions{}); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := RunPrefetchCache(trace, pl, 0, CacheOptions{}); err == nil {
		t.Fatal("zero-byte cache accepted")
	}
	sizes := trace.Sizes
	trace.Sizes = sizes[:2]
	if _, err := RunPrefetchCache(trace, pl, 100, CacheOptions{}); err == nil {
		t.Fatal("size/item mismatch accepted")
	}
	bad := append([]int64(nil), sizes...)
	bad[3] = 0
	trace.Sizes = bad
	if _, err := RunPrefetchCache(trace, pl, 100, CacheOptions{}); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestSizedCacheInvariants(t *testing.T) {
	c := newItemCache(10, 3)
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
