package main

import (
	"math"
	"testing"

	"prefetch"
)

// TestOracleProxyDeterministic replays a 500-request trace through every
// proxy variant, twice each, and checks every run's
// (hits, total, fetched) against values recorded before the proxies
// planned from a page-id vector, floats by their exact bits. Candidates
// are listed in ascending page id, so identically configured proxies fed
// the identical trace must plan identically; the first version appended
// them in map iteration order, and the SKP plan (and therefore the cache
// contents, hit count and network seconds) drifted between runs of the
// same binary.
func TestOracleProxyDeterministic(t *testing.T) {
	want := map[string]struct {
		hits           int64
		total, fetched uint64 // math.Float64bits
	}{
		"no prefetch":          {275, 0x407efe0000000021, 0},
		"learned (depgraph)":   {330, 0x407d52473e0b51a4, 0x4083973333333333},
		"oracle probabilities": {419, 0x406ea9401e1c3554, 0x40a35a7333333337},
	}
	for run := 0; run < 2; run++ {
		r := prefetch.NewRand(2026)
		site, err := prefetch.GenerateSite(r, prefetch.DefaultSiteConfig())
		if err != nil {
			t.Fatal(err)
		}
		trace := browse(r, site, 500)
		for _, p := range variants(site) {
			w := want[p.name]
			p.replay(trace)
			if p.hits != w.hits || math.Float64bits(p.total) != w.total || math.Float64bits(p.fetched) != w.fetched {
				t.Errorf("run %d, %s: hits %d total %v (%#x) fetched %v (%#x), want hits %d total %v fetched %v",
					run, p.name, p.hits, p.total, math.Float64bits(p.total), p.fetched, math.Float64bits(p.fetched),
					w.hits, math.Float64frombits(w.total), math.Float64frombits(w.fetched))
			}
		}
	}
}
