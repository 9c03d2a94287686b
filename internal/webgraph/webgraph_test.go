package webgraph

import (
	"fmt"
	"math"
	"testing"

	"prefetch/internal/rng"
)

func mustSite(t *testing.T, seed uint64) *Site {
	t.Helper()
	site, err := Generate(rng.New(seed), DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultSiteConfig()
	site := mustSite(t, 1)
	if len(site.Pages) != cfg.Pages {
		t.Fatalf("%d pages", len(site.Pages))
	}
	var wsum float64
	for i, pg := range site.Pages {
		if pg.ID != i {
			t.Fatalf("page %d has ID %d", i, pg.ID)
		}
		if len(pg.Links) < cfg.MinLinks || len(pg.Links) > cfg.MaxLinks {
			t.Fatalf("page %d has %d links", i, len(pg.Links))
		}
		seen := map[int]bool{}
		for _, l := range pg.Links {
			if l == i {
				t.Fatalf("page %d links to itself", i)
			}
			if l < 0 || l >= cfg.Pages {
				t.Fatalf("page %d links out of range: %d", i, l)
			}
			if seen[l] {
				t.Fatalf("page %d has duplicate link %d", i, l)
			}
			seen[l] = true
		}
		if pg.Size < int64(cfg.MinSizeKB)*1024 || pg.Size > int64(cfg.MaxSizeKB)*1024 {
			t.Fatalf("page %d size %d out of range", i, pg.Size)
		}
		wantRetr := cfg.LatencyS + float64(pg.Size)/1024/cfg.BandwidthKBps
		if math.Abs(pg.Retrieval-wantRetr) > 1e-9 {
			t.Fatalf("page %d retrieval %v, want %v", i, pg.Retrieval, wantRetr)
		}
		wsum += pg.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", wsum)
	}
}

func TestGenerateValidation(t *testing.T) {
	r := rng.New(2)
	bad := []SiteConfig{
		{Pages: 1, MinLinks: 1, MaxLinks: 1, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 0, MaxLinks: 3, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 5, MaxLinks: 3, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 1, MaxLinks: 10, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 1, MaxLinks: 3, MinSizeKB: 0, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 1, MaxLinks: 3, MinSizeKB: 3, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 1, MaxLinks: 3, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 0},
		{Pages: 10, MinLinks: 1, MaxLinks: 3, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1, LatencyS: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(r, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// nextDist returns s's next-page distribution from page in a fresh
// vector.
func nextDist(s *Surfer, page int) []float64 {
	probs := make([]float64, s.Pages())
	s.NextDistributionInto(page, probs)
	return probs
}

// sameBits reports whether two vectors hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestNextDistributionIsDistribution(t *testing.T) {
	site := mustSite(t, 3)
	s := NewSurfer(rng.New(4), site, 0.85)
	for step := 0; step < 200; step++ {
		var sum float64
		for id, p := range nextDist(s, s.Current()) {
			if p < 0 {
				t.Fatalf("bad entry %d:%v", id, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("step %d: distribution sums to %v", step, sum)
		}
		s.Step()
	}
}

func TestSurferStepMatchesDistribution(t *testing.T) {
	// Empirical next-page frequencies from a fixed page must match
	// the exposed distribution.
	site := mustSite(t, 5)
	s := NewSurfer(rng.New(6), site, 0.85)
	start := s.Current()
	dist := nextDist(s, start)
	counts := map[int]int{}
	const reps = 200000
	for i := 0; i < reps; i++ {
		s.current = start
		counts[s.Step()]++
	}
	for id, want := range dist {
		if want < 0.01 {
			continue // skip tiny teleport slivers: too noisy to check
		}
		got := float64(counts[id]) / reps
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("page %d: frequency %v, distribution says %v", id, got, want)
		}
	}
}

func TestSurferDefaultDamping(t *testing.T) {
	site := mustSite(t, 7)
	s := NewSurfer(rng.New(8), site, 0)
	if s.followProb != 0.85 {
		t.Fatalf("default damping %v", s.followProb)
	}
	s = NewSurfer(rng.New(8), site, 1.5)
	if s.followProb != 0.85 {
		t.Fatalf("out-of-range damping %v", s.followProb)
	}
}

func TestPopularPagesGetMoreInlinks(t *testing.T) {
	site := mustSite(t, 9)
	// Correlation check: the top-decile pages by weight should receive
	// clearly more inbound links than the bottom decile.
	inlinks := make([]int, len(site.Pages))
	for _, pg := range site.Pages {
		for _, l := range pg.Links {
			inlinks[l]++
		}
	}
	type pw struct {
		w  float64
		in int
	}
	items := make([]pw, len(site.Pages))
	for i, pg := range site.Pages {
		items[i] = pw{pg.Weight, inlinks[i]}
	}
	var topW, topIn, botIn float64
	var topN, botN int
	for _, it := range items {
		topW += it.w
	}
	avgW := topW / float64(len(items))
	for _, it := range items {
		if it.w > 2*avgW {
			topIn += float64(it.in)
			topN++
		} else if it.w < avgW/2 {
			botIn += float64(it.in)
			botN++
		}
	}
	if topN == 0 || botN == 0 {
		t.Skip("degenerate weight spread")
	}
	if topIn/float64(topN) <= botIn/float64(botN) {
		t.Fatalf("popular pages not preferentially linked: top avg %v vs bottom avg %v",
			topIn/float64(topN), botIn/float64(botN))
	}
}

// TestNextDistributionIntoIsPure: the distribution is a pure function of
// the page — querying another page leaves the surfer where it is, and
// the current page's distribution comes back bit for bit.
func TestNextDistributionIntoIsPure(t *testing.T) {
	r := rng.New(3)
	site, err := Generate(r, DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSurfer(r, site, 0.85)
	for i := 0; i < 5; i++ {
		cur := s.Current()
		a := nextDist(s, cur)
		nextDist(s, (cur+1)%len(site.Pages))
		if s.Current() != cur {
			t.Fatal("NextDistributionInto moved the surfer")
		}
		if b := nextDist(s, cur); !sameBits(a, b) {
			t.Fatalf("step %d: distribution changed between queries: %v vs %v", i, a, b)
		}
		s.Step()
	}
}

// refNextDistribution is the map-accumulating next-page distribution the
// dense implementation replaced, kept as the reference the dense form
// must reproduce bit for bit (values, and the key count as its support).
func refNextDistribution(s *Surfer, page int) map[int]float64 {
	dist := map[int]float64{}
	links := s.site.Pages[page].Links
	if len(links) > 0 {
		if s.weights == nil {
			per := s.followProb / float64(len(links))
			for _, t := range links {
				dist[t] += per
			}
		} else {
			var wsum float64
			for _, t := range links {
				wsum += s.weights[t]
			}
			for _, t := range links {
				dist[t] += s.followProb * s.weights[t] / wsum
			}
		}
	}
	teleport := 1 - s.followProb
	if len(links) == 0 {
		teleport = 1
	}
	for i := range s.site.Pages {
		w := s.site.Pages[i].Weight
		if s.weights != nil {
			w = s.weights[i]
		}
		if w := w * teleport; w > 0 {
			dist[i] += w
		}
	}
	return dist
}

// TestNextDistributionIntoMatchesMap: for every page of a stationary and
// a drifting surfer, through several phase shifts, NextDistributionInto
// and Site.NextDistributionInto hold exactly the reference map's values
// (zero off its support, and in any tail past the page count), and
// NextDistributionInto's support size is the reference's key count —
// also when a link target carries no mass. Under drift that covers both
// the teleport-row path and the sweep a linkless page falls back to.
func TestNextDistributionIntoMatchesMap(t *testing.T) {
	site := mustSite(t, 21)
	// A page without links teleports with full mass: cover that branch.
	site.Pages[7].Links = nil
	check := func(label string, s *Surfer) {
		t.Helper()
		site := s.site
		probs := make([]float64, len(site.Pages)+3)
		siteProbs := make([]float64, len(site.Pages))
		for page := range site.Pages {
			want := refNextDistribution(s, page)
			for i := range probs {
				probs[i] = math.NaN() // Into must overwrite every slot
			}
			if n := s.NextDistributionInto(page, probs); n != len(want) {
				t.Fatalf("%s page %d: support %d, reference has %d keys", label, page, n, len(want))
			}
			if s.weights == nil {
				site.NextDistributionInto(page, s.followProb, siteProbs)
			}
			for i, p := range probs {
				if math.Float64bits(p) != math.Float64bits(want[i]) {
					t.Fatalf("%s page %d: dense[%d] = %v, reference %v", label, page, i, p, want[i])
				}
				if s.weights == nil && i < len(siteProbs) && math.Float64bits(siteProbs[i]) != math.Float64bits(p) {
					t.Fatalf("%s page %d: Site.NextDistributionInto[%d] = %v, surfer %v", label, page, i, siteProbs[i], p)
				}
			}
		}
	}
	check("stationary", NewSurfer(rng.New(4), site, 0.7))

	s := NewSurfer(rng.New(4), site, 0.85)
	s.EnableDrift(rng.Derive(4, "drift"), 5)
	check("drift phase 0", s)
	for s.Phase() < 4 {
		before := s.Phase()
		s.Step()
		if s.Phase() != before {
			check(fmt.Sprintf("drift phase %d", s.Phase()), s)
		}
	}

	// A link target whose preference weight is zero keeps its place in
	// the support with zero mass. The weight is written directly, so the
	// teleport row is rebuilt from it as a phase shift would.
	s = NewSurfer(rng.New(4), site, 0.85)
	s.EnableDrift(rng.Derive(4, "drift"), 5)
	s.weights[site.Pages[0].Links[0]] = 0
	s.resetTeleport()
	check("zero-weight link target", s)

	// Zero-weight pages in the site's own profile move with every phase
	// shift, so across phases link targets land on zero entries of the
	// teleport row; two linkless pages take the sweep in every phase.
	zsite := mustSite(t, 22)
	zsite.Pages[7].Links, zsite.Pages[30].Links = nil, nil
	for i := 0; i < len(zsite.Pages); i += 4 {
		zsite.Pages[i].Weight = 0
	}
	s = NewSurfer(rng.New(5), zsite, 0.85)
	s.EnableDrift(rng.Derive(5, "drift"), 3)
	zeroTargets := 0
	for phase := 0; ; phase++ {
		check(fmt.Sprintf("zero-weight site phase %d", phase), s)
		for _, pg := range zsite.Pages {
			for _, t := range pg.Links {
				if s.row[t] == 0 {
					zeroTargets++
				}
			}
		}
		if phase == 4 {
			break
		}
		for s.Phase() == phase {
			s.Step()
		}
	}
	if zeroTargets == 0 {
		t.Fatal("no link target met a zero teleport-row entry")
	}
}

// driftSite builds a small site and a drifting surfer for the drift
// tests: cadence `every`, drift stream derived from (seed, "drift").
func driftSite(t *testing.T, seed uint64, every int) *Surfer {
	t.Helper()
	r := rng.New(seed)
	site, err := Generate(r, DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSurfer(r, site, 0.85)
	s.EnableDrift(rng.Derive(seed, "drift"), every)
	return s
}

// TestDriftReplayDeterministic: a drifting surfer replays bit for bit —
// same seeds, same trajectory, same phase boundaries, same distributions.
func TestDriftReplayDeterministic(t *testing.T) {
	a := driftSite(t, 11, 17)
	b := driftSite(t, 11, 17)
	for i := 0; i < 200; i++ {
		if da, db := nextDist(a, a.Current()), nextDist(b, b.Current()); !sameBits(da, db) {
			t.Fatalf("step %d: distributions differ: %v vs %v", i, da, db)
		}
		if pa, pb := a.Step(), b.Step(); pa != pb {
			t.Fatalf("step %d: trajectories diverged: %d vs %d", i, pa, pb)
		}
		if a.Phase() != b.Phase() {
			t.Fatalf("step %d: phases diverged: %d vs %d", i, a.Phase(), b.Phase())
		}
	}
	if a.Phase() != 200/17 {
		t.Errorf("Phase() = %d after 200 steps at cadence 17, want %d", a.Phase(), 200/17)
	}
}

// categoricalStep is Step with its teleport drawn by rng.Categorical
// over the current preference weights, as Step drew it before teleports
// used prepared sums: the reference TestTeleportsMatchCategorical holds
// the prepared draws to.
func categoricalStep(s *Surfer) int {
	links := s.site.Pages[s.current].Links
	if len(links) > 0 && s.rand.Float64() < s.followProb {
		if s.weights == nil {
			s.current = links[s.rand.IntN(len(links))]
		} else {
			lw := make([]float64, len(links))
			for i, t := range links {
				lw[i] = s.weights[t]
			}
			s.current = links[s.rand.Categorical(lw)]
		}
	} else {
		weights := s.weights
		if weights == nil {
			weights = make([]float64, len(s.site.Pages))
			for i := range s.site.Pages {
				weights[i] = s.site.Pages[i].Weight
			}
		}
		s.current = s.rand.Categorical(weights)
	}
	s.maybeShift()
	return s.current
}

// TestTeleportsMatchCategorical: a stationary and a drifting surfer that
// teleport often walk the same trajectory as twins drawing every
// teleport with Categorical, through every phase shift.
func TestTeleportsMatchCategorical(t *testing.T) {
	for _, every := range []int{0, 3} {
		twins := [2]*Surfer{}
		for i := range twins {
			r := rng.New(21)
			site, err := Generate(r, DefaultSiteConfig())
			if err != nil {
				t.Fatal(err)
			}
			twins[i] = NewSurfer(r, site, 0.3)
			if every > 0 {
				twins[i].EnableDrift(rng.Derive(21, "drift"), every)
			}
		}
		for i := 0; i < 3000; i++ {
			if got, want := twins[0].Step(), categoricalStep(twins[1]); got != want {
				t.Fatalf("drift every %d, step %d: Step = %d, Categorical twin %d", every, i, got, want)
			}
		}
	}
}

// TestDriftOracleExactAcrossPhases: the exposed next-page distribution
// is exactly the distribution the next Step samples from, through every
// phase shift — within a phase it is constant per page, it changes only
// at shift boundaries, and it always sums to 1.
func TestDriftOracleExactAcrossPhases(t *testing.T) {
	const every = 25
	s := driftSite(t, 5, every)
	page := s.Current()
	prevPhase := s.Phase()
	prev := nextDist(s, 0)
	shifts := 0
	for i := 0; i < 150; i++ {
		d := nextDist(s, 0)
		var mass float64
		for _, p := range d {
			mass += p
		}
		if mass < 1-1e-9 || mass > 1+1e-9 {
			t.Fatalf("step %d: distribution mass %v", i, mass)
		}
		changed := !sameBits(d, prev)
		if s.Phase() == prevPhase && changed {
			t.Fatalf("step %d: distribution moved inside phase %d", i, s.Phase())
		}
		if s.Phase() != prevPhase {
			if !changed {
				// A re-draw can coincidentally fix a page's weight; the
				// whole distribution matching bit-for-bit across a shift
				// would mean the shift did nothing.
				t.Logf("step %d: phase %d shift left page-0 distribution unchanged", i, s.Phase())
			} else {
				shifts++
			}
			prevPhase = s.Phase()
		}
		prev = d
		page = s.Step()
	}
	_ = page
	if shifts == 0 {
		t.Error("no phase shift moved the exposed distribution")
	}
}

// TestDriftStreamsIndependent: the browsing trajectory before the first
// shift does not depend on the drift cadence — drift draws come from
// their own stream, never the browsing stream.
func TestDriftStreamsIndependent(t *testing.T) {
	a := driftSite(t, 9, 50)
	b := driftSite(t, 9, 500)
	for i := 0; i < 50; i++ {
		if pa, pb := a.Step(), b.Step(); pa != pb {
			t.Fatalf("step %d (before any shift): trajectories diverged: %d vs %d", i, pa, pb)
		}
	}
}

// TestDriftMovesHotSet: a phase shift really moves the preference
// vector — the exposed next-page distribution changes across the
// boundary.
func TestDriftMovesHotSet(t *testing.T) {
	s := driftSite(t, 13, 10)
	before := nextDist(s, 0)
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if s.Phase() != 1 {
		t.Fatalf("Phase() = %d after 10 steps at cadence 10, want 1", s.Phase())
	}
	if sameBits(before, nextDist(s, 0)) {
		t.Error("phase shift left the next-page distribution unchanged")
	}
}

// TestEnableDriftRejectsBadCadence: cadence < 1 is always a caller bug.
func TestEnableDriftRejectsBadCadence(t *testing.T) {
	r := rng.New(1)
	site, err := Generate(r, DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSurfer(r, site, 0.85)
	defer func() {
		if recover() == nil {
			t.Error("EnableDrift(r, 0) did not panic")
		}
	}()
	s.EnableDrift(rng.Derive(1, "drift"), 0)
}
