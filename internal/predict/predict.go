// Package predict is the pluggable prediction subsystem: the single
// interface through which every simulated client obtains its belief about
// the next access, and the place where the paper's "presupposed knowledge
// about future accesses" (§1) becomes a swappable, measurable component.
//
// The paper prices speculation against an access distribution it assumes
// is simply known. Real prefetchers must learn it — Padmanabhan & Mogul's
// server-computed dependency graphs, Vitter & Krishnan's PPM, and their
// modern descendants all estimate the predicted-access stream online. This
// package makes that axis first-class: a Source observes a client's access
// stream and answers NextInto(state, out) with a candidate distribution
// written densely into a page-id vector, and the multiclient simulation
// can run the identical contended workload under
//
//   - KindOracle — the surfer's true next-page distribution, bit-for-bit
//     the behaviour before this subsystem existed (the paper's assumption);
//   - KindDepGraph — an order-1 dependency graph trained online on the
//     client's own access stream;
//   - KindPPM — order-k prediction by partial matching, same stream;
//   - KindShared — one server-side aggregate model trained on the pooled
//     access stream of every client (per-client transition chains, so
//     interleaving never fabricates cross-client edges). The aggregate
//     doubles as the server's cache-warming model: its global page
//     frequencies say what the whole population will want next;
//   - KindDecay — order-1 transitions with exponentially decayed counts,
//     the predictor built for non-stationary workloads: after the hot
//     set drifts, stale evidence ages out and the estimate re-converges;
//   - KindMixture — a popularity×transition blend that hedges sparse
//     states with the global hot set;
//   - KindPPMEscape — PPM with escape-probability blending across
//     context orders down to global frequencies, replacing the hard
//     cold-start fallback with graceful back-off.
//
// Learned sources start cold. ColdStart selects the fallback while the
// model has no evidence for the current state: FallbackNone (predict
// nothing — the client simply does not speculate that round) or
// FallbackUniform (a uniform distribution over every page the source has
// observed so far).
//
// Prediction is dense: NextInto is every source's one prediction body,
// and it allocates nothing, so the simulators score (L1Dense) and rank a
// prediction without building a map. Next, the map view of the same
// distribution built from NextInto by one shared helper, remains only for
// the benchmark harness's prediction-layer replay (bench/layers.go).
//
// Determinism: sources are pure functions of their observation stream and
// consume no randomness, so identical seeds replay bit-for-bit and the
// oracle source reproduces the pre-subsystem timelines exactly.
package predict

import (
	"errors"
	"fmt"
	"math"

	"prefetch/internal/webgraph"
)

// ErrBadConfig reports an invalid prediction configuration.
var ErrBadConfig = errors.New("predict: bad config")

// Kind names a built-in prediction source.
type Kind string

// The built-in prediction sources.
const (
	KindOracle   Kind = "oracle"
	KindDepGraph Kind = "depgraph"
	KindPPM      Kind = "ppm"
	KindShared   Kind = "shared"
	// KindDecay is an order-1 transition model with exponentially decayed
	// counts (Config.HalfLife observations to half weight) — the
	// predictor that re-converges after a workload shift because stale
	// evidence ages out instead of anchoring the estimate forever.
	KindDecay Kind = "decay"
	// KindMixture blends order-1 transitions with global page popularity
	// at Config.MixWeight — popularity hedges sparse states and absorbs
	// the full mass when a state has no transition evidence at all.
	KindMixture Kind = "mixture"
	// KindPPMEscape is PPM with PPM-C-style escape blending across
	// context orders down to global frequencies, replacing the hard
	// cold-start fallback with graceful back-off.
	KindPPMEscape Kind = "ppm-escape"
)

// Kinds lists the built-in prediction sources in canonical order.
func Kinds() []Kind {
	return []Kind{KindOracle, KindDepGraph, KindPPM, KindShared, KindDecay, KindMixture, KindPPMEscape}
}

// Fallback selects a learned source's cold-start behaviour for states it
// has no evidence about.
type Fallback string

// The cold-start fallbacks.
const (
	// FallbackNone predicts nothing on a cold state: the client skips
	// speculation that round.
	FallbackNone Fallback = "none"
	// FallbackUniform predicts a uniform distribution over every page the
	// source has observed so far.
	FallbackUniform Fallback = "uniform"
)

// Source is the prediction interface every planner consumes: an online
// access model fed the client's demand-access stream through Observe and
// queried for the distribution of the access after state. Page ids are
// non-negative. Probabilities sum to at most 1, and the support may be
// empty when the source has nothing to say (a cold learned model with
// FallbackNone). Sources consume no randomness and are pure functions of
// their observation stream.
type Source interface {
	// Name identifies the source (e.g. "oracle", "depgraph", "ppm-2").
	Name() string
	// Observe feeds the next item of the access sequence.
	Observe(page int)
	// NextInto is the source's prediction: it zeroes out, writes the
	// predicted probability of each candidate next page at its page id,
	// and returns the support size. Every page id must be below
	// len(out), and NextInto panics otherwise. It allocates nothing.
	NextInto(state int, out []float64) int
	// Next returns the same distribution as a map of the support. It
	// allocates, and it is kept only for bench/layers.go's replay until
	// the benchmark harness reads vectors; everything else calls NextInto.
	Next(state int) map[int]float64
}

// spanned is a source plus the vector length that holds any of its
// predictions, which sizes the map view.
type spanned interface {
	Source
	span() int
}

// nextView is the map view every source's Next returns: NextInto into a
// fresh vector of the source's span, read back as a map of the non-zero
// entries. Those are exactly the support: every learned probability is
// positive, and so is every oracle probability on a site whose page
// weights are all positive.
func nextView(s spanned, state int) map[int]float64 {
	out := make([]float64, s.span())
	dist := make(map[int]float64, s.NextInto(state, out))
	for page, p := range out {
		if p != 0 {
			dist[page] = p
		}
	}
	return dist
}

// pageSpan is one more than the largest page id observed. A learned
// source predicts only pages it has observed, so a vector of this length
// holds any of its predictions.
type pageSpan struct{ n int }

// see extends the span to cover page.
func (s *pageSpan) see(page int) {
	if page >= s.n {
		s.n = page + 1
	}
}

// span returns the vector length that covers every observed page.
func (s *pageSpan) span() int { return s.n }

// Config parameterises the prediction source of one simulation. The zero
// value is the oracle — the paper's presupposed-knowledge behaviour.
type Config struct {
	// Kind selects the source; "" means KindOracle.
	Kind Kind
	// Order is the PPM context order (KindPPM and KindPPMEscape;
	// 0 = default 2).
	Order int
	// ColdStart selects the learned sources' cold-start fallback;
	// "" means FallbackNone. Ignored by the oracle.
	ColdStart Fallback
	// HalfLife is KindDecay's evidence half-life in observations
	// (0 = default 500).
	HalfLife float64
	// MixWeight is KindMixture's popularity share, in (0, 1)
	// (0 = default 0.25).
	MixWeight float64
}

// withDefaults fills zero-valued fields.
func (cfg Config) withDefaults() Config {
	if cfg.Kind == "" {
		cfg.Kind = KindOracle
	}
	if cfg.Order == 0 {
		cfg.Order = 2
	}
	if cfg.ColdStart == "" {
		cfg.ColdStart = FallbackNone
	}
	if cfg.HalfLife == 0 {
		cfg.HalfLife = 500
	}
	if cfg.MixWeight == 0 {
		cfg.MixWeight = 0.25
	}
	return cfg
}

// Validate checks the configuration (after defaulting). Numeric checks
// are in positive form so NaN inputs are rejected, and every diagnostic
// reports the defaulted value actually compared against.
func (cfg Config) Validate() error {
	c := cfg.withDefaults()
	known := false
	for _, k := range Kinds() {
		if c.Kind == k {
			known = true
			break
		}
	}
	switch {
	case !known:
		return fmt.Errorf("%w: unknown predictor %q", ErrBadConfig, c.Kind)
	case c.Order < 1:
		return fmt.Errorf("%w: ppm order %d (need >= 1)", ErrBadConfig, c.Order)
	case c.ColdStart != FallbackNone && c.ColdStart != FallbackUniform:
		return fmt.Errorf("%w: unknown cold-start fallback %q", ErrBadConfig, c.ColdStart)
	case !(c.HalfLife > 0) || math.IsInf(c.HalfLife, 0):
		return fmt.Errorf("%w: decay half-life %v (need finite > 0)", ErrBadConfig, c.HalfLife)
	case !(c.MixWeight > 0 && c.MixWeight < 1):
		return fmt.Errorf("%w: mixture weight %v outside (0, 1)", ErrBadConfig, c.MixWeight)
	}
	return nil
}

// New builds the configured source for one client. truth is the surfer
// whose true next-page distribution the oracle reads (required by
// KindOracle); shared is the run-wide aggregate model (required by
// KindShared), with client labelling the caller's stream within it.
func New(cfg Config, client int, truth *webgraph.Surfer, shared *Aggregate) (Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	switch cfg.Kind {
	case KindOracle:
		if truth == nil {
			return nil, fmt.Errorf("%w: oracle source needs the true-distribution surfer", ErrBadConfig)
		}
		return NewOracle(truth), nil
	case KindDepGraph:
		return withFallback(NewDependencyGraph(), cfg.ColdStart), nil
	case KindPPM:
		p, err := NewPPM(cfg.Order)
		if err != nil {
			return nil, err
		}
		return withFallback(p, cfg.ColdStart), nil
	case KindShared:
		if shared == nil {
			return nil, fmt.Errorf("%w: shared source needs the run's aggregate model", ErrBadConfig)
		}
		return withFallback(shared.ForClient(client).(spanned), cfg.ColdStart), nil
	case KindDecay:
		return withFallback(newDecay(cfg.HalfLife), cfg.ColdStart), nil
	case KindMixture:
		return withFallback(newMixture(cfg.MixWeight), cfg.ColdStart), nil
	case KindPPMEscape:
		return withFallback(newPPMEscape(cfg.Order), cfg.ColdStart), nil
	}
	return nil, fmt.Errorf("%w: unknown predictor %q", ErrBadConfig, cfg.Kind)
}

// Oracle answers straight from a surfer's true next-page distribution
// and learns nothing: the paper's presupposed access knowledge as a
// Source. It reads the surfer's current drift phase at every query.
type Oracle struct {
	truth *webgraph.Surfer
}

// NewOracle returns the Source over truth's next-page distribution.
func NewOracle(truth *webgraph.Surfer) *Oracle { return &Oracle{truth: truth} }

// Name implements Source.
func (o *Oracle) Name() string { return string(KindOracle) }

// Observe implements Source; the oracle has nothing to learn.
func (o *Oracle) Observe(int) {}

// NextInto implements Source: the surfer's distribution, whose support
// holds every link target of state plus every page with teleport mass.
// out must hold at least one entry per page of the site.
func (o *Oracle) NextInto(state int, out []float64) int {
	return o.truth.NextDistributionInto(state, out)
}

// span covers every page of the site.
func (o *Oracle) span() int { return o.truth.Pages() }

// Next implements Source.
func (o *Oracle) Next(state int) map[int]float64 { return nextView(o, state) }

// fallback wraps a learned source with the configured cold-start
// behaviour. It tracks the set of pages observed so far so FallbackUniform
// can spread mass over the known universe without consulting anything the
// client could not have seen.
type fallback struct {
	inner spanned
	mode  Fallback
	seen  map[int]bool
}

// withFallback applies the cold-start policy; FallbackNone needs no
// wrapper at all.
func withFallback(inner spanned, mode Fallback) Source {
	if mode == FallbackNone {
		return inner
	}
	return &fallback{inner: inner, mode: mode, seen: map[int]bool{}}
}

// Name implements Source.
func (f *fallback) Name() string { return f.inner.Name() }

// Observe implements Source.
func (f *fallback) Observe(page int) {
	f.seen[page] = true
	f.inner.Observe(page)
}

// NextInto implements Source: the inner prediction when it has any
// support, otherwise the uniform distribution over the pages seen.
func (f *fallback) NextInto(state int, out []float64) int {
	if n := f.inner.NextInto(state, out); n > 0 {
		return n
	}
	per := 1 / float64(len(f.seen))
	for p := range f.seen {
		out[p] = per
	}
	return len(f.seen)
}

// span covers the inner source's predictions, which may include pages
// other clients showed a shared aggregate.
func (f *fallback) span() int { return f.inner.span() }

// Next implements Source.
func (f *fallback) Next(state int) map[int]float64 { return nextView(f, state) }

// Aggregate is the server-side shared model: order-1 transition counts
// pooled over every client's access stream, with the previous page tracked
// per client so the interleaved arrival order never fabricates
// cross-client transitions, plus global page frequencies for server cache
// warming. One Aggregate serves a whole simulation; clients obtain their
// Source view with ForClient. It is not safe for concurrent use — the
// simulators are single-goroutine per replica.
type Aggregate struct {
	trans transitions
	pop   ranking
	last  []int // client → 1 + its previous page; 0 = none yet
	top   []int // TopPages' reused result
}

// NewAggregate returns an empty aggregate model.
func NewAggregate() *Aggregate { return &Aggregate{} }

// ObserveClient feeds one page of a client's access stream into the
// pooled model. Client ids are small and non-negative.
func (a *Aggregate) ObserveClient(client, page int) {
	if client >= len(a.last) {
		a.last = append(a.last, make([]int, client+1-len(a.last))...)
	}
	if prev := a.last[client] - 1; prev >= 0 {
		a.trans.add(prev, page)
	}
	a.last[client] = page + 1
	a.pop.add(page)
}

// NextInto writes the pooled transition distribution out of state into
// out, as Source.NextInto does, and returns its support size.
func (a *Aggregate) NextInto(state int, out []float64) int {
	clear(out)
	return a.trans.nextInto(state, out)
}

// Freq returns the pooled access count of a page.
func (a *Aggregate) Freq(page int) int64 { return a.pop.freq(page) }

// Observations returns the total number of pooled observations.
func (a *Aggregate) Observations() int64 { return a.pop.total }

// TopPages returns the n most frequently accessed pages over the pooled
// stream, most popular first, ties broken by lowest page ID — the warm
// set a server-side prefetcher should hold. The pooled counts are kept in
// that order as they grow, so this copies a prefix. The slice is reused:
// it is valid until the next ObserveClient or TopPages call, and nil when
// n <= 0 or nothing was observed.
func (a *Aggregate) TopPages(n int) []int {
	if n <= 0 || len(a.pop.order) == 0 {
		return nil
	}
	a.top = a.top[:0]
	for _, e := range a.pop.order[:min(n, len(a.pop.order))] {
		a.top = append(a.top, e.page)
	}
	return a.top
}

// span covers every page the aggregate has pooled: the page index holds
// one entry per id up to the largest.
func (a *Aggregate) span() int { return len(a.pop.at) }

// clientView adapts one client's slot in the Aggregate to the Source
// interface.
type clientView struct {
	agg    *Aggregate
	client int
}

// ForClient returns client's Source view of the pooled model: Observe
// extends that client's chain, NextInto reads the pooled counts.
func (a *Aggregate) ForClient(client int) Source {
	return &clientView{agg: a, client: client}
}

// Name implements Source.
func (v *clientView) Name() string { return string(KindShared) }

// Observe implements Source.
func (v *clientView) Observe(page int) { v.agg.ObserveClient(v.client, page) }

// NextInto implements Source.
func (v *clientView) NextInto(state int, out []float64) int { return v.agg.NextInto(state, out) }

// span covers every page the aggregate has pooled.
func (v *clientView) span() int { return v.agg.span() }

// Next implements Source.
func (v *clientView) Next(state int) map[int]float64 { return nextView(v, state) }

// L1Dense returns the L1 distance Σ |p(i) − q(i)| between two dense
// vectors indexed by page id — the prediction-error metric the
// multiclient simulation records each planned round (0 = identical, 2 =
// disjoint). The terms are summed over i ascending, a fixed order, so
// the last ulp replays bit for bit; ids in neither support add +0, which
// leaves a sum that starts at +0 unchanged, so the result equals the
// sorted-key sum over the two supports. Each term is math.Abs(p(i) −
// q(i)), which is branch-free and differs from negating a negative
// difference only at −0, where it gives +0; added to a sum that is never
// −0, either zero leaves it unchanged, so the result's bits equal the
// branch form's for every non-NaN input. It neither allocates nor sorts.
// p and q must have the same length, and L1Dense panics otherwise.
func L1Dense(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("predict: L1Dense over vectors of length %d and %d", len(p), len(q)))
	}
	var sum float64
	for i, qv := range q {
		sum += math.Abs(p[i] - qv)
	}
	return sum
}
