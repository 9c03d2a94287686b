// Package webgraph generates synthetic web-site structures and browsing
// sessions for the example applications: pages with hyperlinks, Zipf-like
// popularity, and a random surfer who either follows a link from the
// current page or jumps (bookmark/back-button) to a popular page. The
// surfer exposes its true next-page distribution, which is exactly the
// speculative knowledge the paper's prefetcher presupposes; the examples
// alternatively learn it with the access predictors.
package webgraph

import (
	"errors"
	"fmt"
	"math"

	"prefetch/internal/rng"
)

// ErrBadSite reports invalid site configuration.
var ErrBadSite = errors.New("webgraph: bad site")

// Page is one document.
type Page struct {
	ID        int
	Links     []int   // outgoing hyperlinks (no duplicates, no self-link)
	Size      int64   // bytes
	Retrieval float64 // seconds to fetch over the modelled link
	Weight    float64 // popularity weight (normalised over the site)
}

// Site is a generated web site.
type Site struct {
	Pages []Page
}

// SiteConfig parameterises Generate.
type SiteConfig struct {
	Pages         int     // number of pages
	MinLinks      int     // min outgoing links per page
	MaxLinks      int     // max outgoing links per page
	ZipfS         float64 // popularity exponent (<=0: 1.0)
	MinSizeKB     int     // min page size in KB
	MaxSizeKB     int     // max page size in KB
	BandwidthKBps float64 // link bandwidth used to derive retrieval times
	LatencyS      float64 // fixed per-fetch latency in seconds
}

// DefaultSiteConfig returns a plausible mid-1990s site over a slow link —
// the paper's "distributed information systems" setting.
func DefaultSiteConfig() SiteConfig {
	return SiteConfig{
		Pages: 120, MinLinks: 4, MaxLinks: 12, ZipfS: 1.1,
		MinSizeKB: 2, MaxSizeKB: 120, BandwidthKBps: 16, LatencyS: 0.3,
	}
}

// Generate builds a random site: link targets biased toward popular pages
// (preferential attachment flavour), sizes log-uniform-ish, retrieval time
// latency + size/bandwidth.
func Generate(r *rng.Source, cfg SiteConfig) (*Site, error) {
	if cfg.Pages < 2 {
		return nil, fmt.Errorf("%w: %d pages", ErrBadSite, cfg.Pages)
	}
	if cfg.MinLinks < 1 || cfg.MaxLinks < cfg.MinLinks || cfg.MaxLinks >= cfg.Pages {
		return nil, fmt.Errorf("%w: link range [%d,%d] with %d pages", ErrBadSite, cfg.MinLinks, cfg.MaxLinks, cfg.Pages)
	}
	if cfg.MinSizeKB < 1 || cfg.MaxSizeKB < cfg.MinSizeKB {
		return nil, fmt.Errorf("%w: size range [%d,%d] KB", ErrBadSite, cfg.MinSizeKB, cfg.MaxSizeKB)
	}
	if cfg.BandwidthKBps <= 0 || cfg.LatencyS < 0 {
		return nil, fmt.Errorf("%w: bandwidth %v latency %v", ErrBadSite, cfg.BandwidthKBps, cfg.LatencyS)
	}
	s := cfg.ZipfS
	if s <= 0 {
		s = 1
	}
	site := &Site{Pages: make([]Page, cfg.Pages)}
	// Popularity: Zipf over a random permutation of ranks.
	perm := r.Perm(cfg.Pages)
	var wsum float64
	weights := make([]float64, cfg.Pages)
	for i := 0; i < cfg.Pages; i++ {
		w := 1 / math.Pow(float64(perm[i]+1), s)
		weights[i] = w
		wsum += w
	}
	for i := range site.Pages {
		// Log-ish size spread: squaring a uniform biases toward small pages.
		u := r.Float64()
		kb := cfg.MinSizeKB + int(u*u*float64(cfg.MaxSizeKB-cfg.MinSizeKB)+0.5)
		size := int64(kb) * 1024
		site.Pages[i] = Page{
			ID:        i,
			Size:      size,
			Retrieval: cfg.LatencyS + float64(kb)/cfg.BandwidthKBps,
			Weight:    weights[i] / wsum,
		}
	}
	// Links: sample distinct targets with popularity bias, no self-links.
	for i := range site.Pages {
		deg := r.IntRange(cfg.MinLinks, cfg.MaxLinks)
		chosen := map[int]bool{i: true}
		var links []int
		for len(links) < deg {
			t := r.Categorical(weights)
			if chosen[t] {
				// Fall back to uniform to guarantee progress on tiny sites.
				t = r.IntN(cfg.Pages)
				if chosen[t] {
					continue
				}
			}
			chosen[t] = true
			links = append(links, t)
		}
		site.Pages[i].Links = links
	}
	return site, nil
}

// NextDistributionInto computes the stationary random-surfer next-page
// distribution from page into probs (len(probs) must equal the page
// count; it is zeroed first). This is the site-level form of
// Surfer.NextDistributionInto for a drift-free surfer: a pure function of
// (site, page, followProb), so every probability is bit-for-bit the
// value the surfer would report. followProb outside (0,1) defaults to
// 0.85 exactly as NewSurfer does.
func (s *Site) NextDistributionInto(page int, followProb float64, probs []float64) {
	if followProb <= 0 || followProb >= 1 {
		followProb = 0.85
	}
	s.nextInto(page, followProb, nil, probs)
}

// nextInto is the one implementation of the random-surfer next-page
// distribution: link mass first — uniform, or biased by the phase
// preferences when weights is non-nil — then the teleport sweep over the
// preference weights (the site popularity when weights is nil). probs is
// zeroed first, and every float operation happens in the order of the
// map-accumulating reference the tests keep, so the two agree bit for
// bit. It returns the support size — the reference's key count: every
// link target, whatever its mass, plus every page with positive teleport
// mass.
func (s *Site) nextInto(page int, followProb float64, weights, probs []float64) int {
	clear(probs)
	links := s.Pages[page].Links
	if len(links) > 0 {
		if weights == nil {
			per := followProb / float64(len(links))
			for _, t := range links {
				probs[t] += per
			}
		} else {
			addBiasedLinks(probs, links, followProb, weights)
		}
	}
	teleport := 1 - followProb
	if len(links) == 0 {
		teleport = 1
	}
	support := 0
	for i := range s.Pages {
		w := s.Pages[i].Weight
		if weights != nil {
			w = weights[i]
		}
		if w *= teleport; w > 0 {
			probs[i] += w
			support++
		}
	}
	// Count the link targets the sweep left out.
	for _, t := range links {
		w := s.Pages[t].Weight
		if weights != nil {
			w = weights[t]
		}
		if !(w*teleport > 0) {
			support++
		}
	}
	return support
}

// addBiasedLinks adds a drifting surfer's link mass to probs: link
// choice is biased by the phase preferences. Links is duplicate-free and
// in fixed order, so the sum is deterministic.
func addBiasedLinks(probs []float64, links []int, followProb float64, weights []float64) {
	var wsum float64
	for _, t := range links {
		wsum += weights[t]
	}
	for _, t := range links {
		probs[t] += followProb * weights[t] / wsum
	}
}

// Surfer is a random-surfer browsing model over a Site: with probability
// FollowProb it follows a uniformly chosen link of the current page,
// otherwise it teleports to a page drawn from the popularity weights.
//
// EnableDrift switches the surfer into a non-stationary (phase-shifting)
// mode in which browsing is driven by a mutable preference vector that is
// re-drawn at a fixed cadence — the hot set moves while the link
// structure stays put. A stationary surfer's behaviour is untouched.
// A drifting surfer keeps the phase's teleport row, the teleport mass of
// every page, so its next-page distribution from a page with links is
// that row plus the link mass rather than a sweep over the whole site.
type Surfer struct {
	site       *Site
	rand       *rng.Source
	followProb float64
	current    int

	// Drift state. weights is nil for a stationary surfer; when set it is
	// the current phase's preference vector, consulted for both link
	// choice and teleports, and re-drawn from driftRand (a stream
	// dedicated to drift, so enabling drift never perturbs the browsing
	// stream) every driftEvery steps.
	weights    []float64
	driftRand  *rng.Source
	driftEvery int
	steps      int
	phase      int

	// teleport holds the running sums of the teleport weights — the
	// site's popularity, or the current phase's preferences under drift —
	// prepared once (and again at every phase shift) instead of scanned
	// twice per teleporting step; lw is the drift link-bias scratch.
	// Neither changes any draw: a prepared draw picks Categorical's index
	// from the same stream.
	teleport rng.Cumulative
	lw       []float64

	// row is the current phase's teleport row under drift: row[i] =
	// weights[i]·(1−followProb) where that product is > 0, and 0
	// elsewhere; rowSupport counts its positive entries. Like teleport it
	// is rebuilt at every phase shift, and nil for a stationary surfer.
	row        []float64
	rowSupport int
}

// NewSurfer starts a surfer at page 0. followProb outside (0,1) defaults
// to 0.85 (the classic damping factor).
func NewSurfer(r *rng.Source, site *Site, followProb float64) *Surfer {
	if followProb <= 0 || followProb >= 1 {
		followProb = 0.85
	}
	s := &Surfer{site: site, rand: r.Split(), followProb: followProb}
	s.teleport.Reset(len(site.Pages), func(i int) float64 { return site.Pages[i].Weight })
	return s
}

// Current returns the current page ID.
func (s *Surfer) Current() int { return s.current }

// SetCurrent moves the surfer to a page, for replaying recorded traces
// (the next-page distribution depends only on the current page). It panics
// on an out-of-range page: that is always a caller bug.
func (s *Surfer) SetCurrent(page int) {
	if page < 0 || page >= len(s.site.Pages) {
		panic(fmt.Sprintf("webgraph: SetCurrent(%d) outside site of %d pages", page, len(s.site.Pages)))
	}
	s.current = page
}

// Pages returns the site's page count: the length of the vector
// NextDistributionInto fills.
func (s *Surfer) Pages() int { return len(s.site.Pages) }

// NextDistributionInto writes the true distribution of the page after
// page into probs, indexed by page id, and returns its support size —
// the speculative knowledge available to the prefetcher. probs is zeroed
// first and must hold at least Pages() entries; pages outside the support
// read 0. The distribution is a pure function of (site, page, followProb)
// plus, under drift, the current phase's preference vector, so querying
// any page leaves the surfer where it is. It tracks every phase shift
// exactly: shifts are applied at the end of Step, so the distribution
// queried between steps always matches what the next Step will sample
// from. Nothing is allocated.
//
// Under drift a page with links starts from the phase's teleport row and
// adds each link target's mass to it: teleport + link where Site's sweep
// adds (0 + link) + teleport, the same bits because IEEE addition is
// commutative and 0 + x = x. The support is the row's positive count
// plus every link target the row leaves at 0, the count the sweep
// returns. A linkless page (teleport mass 1) and a stationary surfer
// take the sweep.
func (s *Surfer) NextDistributionInto(page int, probs []float64) int {
	links := s.site.Pages[page].Links
	if s.row == nil || len(links) == 0 {
		return s.site.nextInto(page, s.followProb, s.weights, probs)
	}
	clear(probs[copy(probs, s.row):])
	support := s.rowSupport
	for _, t := range links {
		if !(probs[t] > 0) {
			support++
		}
	}
	addBiasedLinks(probs, links, s.followProb, s.weights)
	return support
}

// Step advances the surfer and returns the new page ID. Under drift the
// phase shift (if the cadence has elapsed) is applied after the page is
// sampled, so NextDistributionInto queries between steps always describe
// the step about to be taken.
func (s *Surfer) Step() int {
	links := s.site.Pages[s.current].Links
	if len(links) > 0 && s.rand.Float64() < s.followProb {
		if s.weights == nil {
			s.current = links[s.rand.IntN(len(links))]
		} else {
			lw := s.lw[:0]
			for _, t := range links {
				lw = append(lw, s.weights[t])
			}
			s.lw = lw
			s.current = links[s.rand.Categorical(lw)]
		}
	} else {
		s.current = s.teleport.Draw(s.rand)
	}
	s.maybeShift()
	return s.current
}

// EnableDrift switches the surfer into phase-shifting mode: every `every`
// steps the preference vector — the weights that bias both link choice
// and teleports — is re-drawn by re-permuting the site's popularity
// profile with draws from r. r must be a stream dedicated to drift (the
// partitioned-RNG idiom: derive it per surfer), so the re-draws are
// deterministic, replay bit-for-bit, and never perturb the browsing
// stream. The initial phase keeps the site's own weights; the first
// shift happens after `every` steps. every < 1 panics: that is always a
// caller bug (0 means "stationary" and must not reach here).
func (s *Surfer) EnableDrift(r *rng.Source, every int) {
	if every < 1 {
		panic(fmt.Sprintf("webgraph: EnableDrift cadence %d (need >= 1)", every))
	}
	s.driftRand = r
	s.driftEvery = every
	// One allocation holds the preferences and the teleport row.
	n := len(s.site.Pages)
	buf := make([]float64, 2*n)
	s.weights, s.row = buf[:n:n], buf[n:]
	for i := range s.site.Pages {
		s.weights[i] = s.site.Pages[i].Weight
	}
	s.resetTeleport()
}

// resetTeleport prepares the current phase's preferences for teleport
// draws and rebuilds the teleport row from them.
func (s *Surfer) resetTeleport() {
	s.teleport.Reset(len(s.weights), func(i int) float64 { return s.weights[i] })
	teleport := 1 - s.followProb
	s.rowSupport = 0
	for i, w := range s.weights {
		if w *= teleport; w > 0 {
			s.row[i] = w
			s.rowSupport++
		} else {
			s.row[i] = 0
		}
	}
}

// maybeShift applies a phase shift when the drift cadence has elapsed.
func (s *Surfer) maybeShift() {
	if s.driftEvery == 0 {
		return
	}
	s.steps++
	if s.steps%s.driftEvery != 0 {
		return
	}
	// Re-permute the site's weight profile: the popularity ranks are
	// reassigned to pages, so the hot set moves while the overall
	// popularity skew (and the weights' sum) is preserved exactly.
	perm := s.driftRand.Perm(len(s.weights))
	for i := range s.weights {
		s.weights[i] = s.site.Pages[perm[i]].Weight
	}
	s.resetTeleport()
	s.phase++
}

// Phase returns how many drift shifts have been applied (0 while
// stationary or before the first shift).
func (s *Surfer) Phase() int { return s.phase }
