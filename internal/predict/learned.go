package predict

import (
	"fmt"
	"math"
)

// This file holds the learned sources: the dependency graph (KindDepGraph)
// and PPM (KindPPM) of the related-work lineage, and the drift-tracking
// sources — exponentially-decayed transition counts (KindDecay), a
// popularity × transition mixture (KindMixture), and a blended/escape PPM
// that backs off across context orders instead of falling off a hard
// cold-start cliff (KindPPMEscape). All are deterministic pure functions
// of their observation streams: per-page arithmetic happens in a fixed
// order, and any sum over pages runs in ascending page id over the dense
// vector so the last ulp can never depend on map iteration (the same
// bit-for-bit-replay discipline as L1Dense). All but decay count in the
// integer stores of counts.go. Each source's NextInto is its one
// prediction body; Next is the shared map view.

// DependencyGraph is an order-1 transition-count predictor after
// Padmanabhan & Mogul's server-side dependency graph: each observed pair
// (previous, next) increments an edge counter, and prediction normalises
// the outgoing counts of the queried item.
type DependencyGraph struct {
	pageSpan
	trans transitions
	last  int
	any   bool
}

// NewDependencyGraph returns an empty dependency-graph predictor.
func NewDependencyGraph() *DependencyGraph { return &DependencyGraph{} }

// Name identifies the predictor.
func (d *DependencyGraph) Name() string { return string(KindDepGraph) }

// Observe feeds the next item of the access sequence.
func (d *DependencyGraph) Observe(item int) {
	if d.any {
		d.trans.add(d.last, item)
	}
	d.last = item
	d.any = true
	d.see(item)
}

// NextInto writes the predicted distribution of the item following state
// into out, as Source.NextInto does: the normalised outgoing edge counts
// of state. The support is empty when state has no observed successors.
func (d *DependencyGraph) NextInto(state int, out []float64) int {
	clear(out)
	return d.trans.nextInto(state, out)
}

// Next returns NextInto's distribution as a map.
func (d *DependencyGraph) Next(state int) map[int]float64 { return nextView(d, state) }

// PPM is an order-k prediction-by-partial-matching predictor after
// Vitter & Krishnan: it keeps counts for every context of length 1..k and
// predicts from the longest context that has been seen before (a
// simplified PPM without blending).
type PPM struct {
	pageSpan
	ctx contexts
}

// NewPPM returns a PPM predictor of the given order (>= 1).
func NewPPM(order int) (*PPM, error) {
	if order < 1 {
		return nil, fmt.Errorf("%w: PPM order %d", ErrBadConfig, order)
	}
	return &PPM{ctx: contexts{order: order}}, nil
}

// Name identifies the predictor.
func (p *PPM) Name() string { return fmt.Sprintf("ppm-%d", p.ctx.order) }

// Order returns the configured context order.
func (p *PPM) Order() int { return p.ctx.order }

// Observe feeds the next item of the access sequence.
func (p *PPM) Observe(item int) {
	p.ctx.observe(item)
	p.see(item)
}

// NextInto writes the predicted distribution of the item following state
// into out, as Source.NextInto does, from the longest seen context. When
// the tracked history already ends at state (the normal online case) the
// full context is used; otherwise prediction falls back to the order-1
// context of state alone.
func (p *PPM) NextInto(state int, out []float64) int {
	clear(out)
	seen := p.ctx.match(state)
	if len(seen) == 0 {
		return 0
	}
	longest := seen[len(seen)-1]
	longest.blend(out, 1)
	return len(longest.seen)
}

// Next returns NextInto's distribution as a map.
func (p *PPM) Next(state int) map[int]float64 { return nextView(p, state) }

// pruneEps is the decayed-count floor below which an edge is dropped:
// far beyond float noise after a handful of half-lives, so pruning
// bounds memory without measurably moving any prediction.
const pruneEps = 1e-12

// decaySource is an order-1 transition model whose evidence ages: every
// observation scales all earlier counts by 2^(-1/halfLife) before the
// new edge gets weight 1, so an observation halfLife observations old
// carries half the weight of a fresh one. Under a stationary workload it
// behaves like a noisier dependency graph (it keeps discarding
// evidence); under a drifting one it is the predictor that re-converges,
// because stale pre-shift counts decay away instead of anchoring the
// estimate forever.
//
// Decay is applied lazily per state: each state's counts are aged to the
// global observation clock only when the state is touched by Observe.
// Every count in a state therefore shares the state's age, so the decay
// factor between the state's last touch and "now" cancels in Next's
// normalisation and prediction needs no aging at all.
type decaySource struct {
	pageSpan
	alpha  float64 // per-observation decay factor 2^(-1/halfLife)
	clock  int64   // observations so far
	states map[int]*decayState
	last   int
	any    bool
}

type decayState struct {
	next map[int]float64
	aged int64 // clock value the counts were last aged to
}

// newDecay returns an empty decayed-count source with the given
// half-life in observations (> 0; validated by Config.Validate).
func newDecay(halfLife float64) *decaySource {
	return &decaySource{
		alpha:  math.Exp2(-1 / halfLife),
		states: map[int]*decayState{},
	}
}

// Name implements Source.
func (d *decaySource) Name() string { return string(KindDecay) }

// Observe implements Source.
func (d *decaySource) Observe(page int) {
	d.clock++
	if d.any {
		st := d.states[d.last]
		if st == nil {
			st = &decayState{next: map[int]float64{}}
			d.states[d.last] = st
		}
		st.age(d.alpha, d.clock)
		st.next[page]++
	}
	d.last = page
	d.any = true
	d.see(page)
}

// age scales the state's counts down to the current clock. Each entry is
// scaled independently (order-free), and entries that have decayed below
// pruneEps are dropped.
func (st *decayState) age(alpha float64, clock int64) {
	dt := clock - st.aged
	st.aged = clock
	if dt <= 0 || len(st.next) == 0 {
		return
	}
	f := powN(alpha, dt)
	for page, c := range st.next {
		c *= f
		if c < pruneEps {
			delete(st.next, page)
		} else {
			st.next[page] = c
		}
	}
}

// powN computes alpha^n by binary exponentiation — deterministic and
// exactly reproducible for a given (alpha, n), unlike a loop whose
// rounding depends on n's magnitude only.
func powN(alpha float64, n int64) float64 {
	result := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			result *= alpha
		}
		alpha *= alpha
	}
	return result
}

// NextInto implements Source. The shared age of a state's counts cancels
// in the normalisation, so no aging is needed here. The counts are
// written into out first and the total is summed over out in ascending
// page id — the sorted-key order, since absent pages add +0 — for
// bit-for-bit replay.
func (d *decaySource) NextInto(state int, out []float64) int {
	clear(out)
	st := d.states[state]
	if st == nil || len(st.next) == 0 {
		return 0
	}
	for page, c := range st.next {
		out[page] = c
	}
	var total float64
	for _, c := range out {
		total += c
	}
	for page := range st.next {
		out[page] /= total
	}
	return len(st.next)
}

// Next implements Source.
func (d *decaySource) Next(state int) map[int]float64 { return nextView(d, state) }

// mixtureSource blends an order-1 transition model with global page
// popularity: Next = (1−w)·transition + w·popularity, the PPE-style
// popularity×transition mixture. The popularity component hedges the
// transition estimate — sparse states borrow mass from the global hot
// set — and when a state has no transition evidence at all the whole
// mass escapes to popularity, so the mixture never faces the hard
// cold-start cliff of a bare dependency graph.
type mixtureSource struct {
	weight float64 // popularity share w in (0, 1)
	trans  DependencyGraph
	pop    popularity
}

// newMixture returns an empty mixture source with popularity share w
// (in (0,1); validated by Config.Validate).
func newMixture(w float64) *mixtureSource { return &mixtureSource{weight: w} }

// Name implements Source.
func (m *mixtureSource) Name() string { return string(KindMixture) }

// Observe implements Source.
func (m *mixtureSource) Observe(page int) {
	m.trans.Observe(page)
	m.pop.add(page)
}

// NextInto implements Source. Both components normalise by integer
// counts, so every output value is a fixed-order expression per page and
// needs no sorted summation: the transition term is written and rescaled
// in place, then popularity is added. Popularity has seen every page, so
// its page count is the support size.
func (m *mixtureSource) NextInto(state int, out []float64) int {
	clear(out)
	// No transition evidence: the full mass escapes to popularity.
	popShare := 1.0
	if succ := m.trans.trans.succ(state); succ != nil {
		succ.blend(out, 1)
		for _, e := range succ.seen {
			out[e.page] = (1 - m.weight) * out[e.page]
		}
		popShare = m.weight
	}
	m.pop.blend(out, popShare)
	return len(m.pop.seen)
}

// span covers every page the mixture has observed.
func (m *mixtureSource) span() int { return m.trans.span() }

// Next implements Source.
func (m *mixtureSource) Next(state int) map[int]float64 { return nextView(m, state) }

// ppmEscape is prediction by partial matching with PPM-C-style escape
// blending: instead of predicting only from the longest previously seen
// context (and falling off a configured cold-start cliff when even the
// order-1 context is unseen), each context order k contributes its
// normalised counts weighted by the probability that prediction did NOT
// escape past it, with the escape probability at each context set to
// distinct/(total+distinct). The leftover mass lands on the order-0
// global frequency model, so any source that has observed anything
// always predicts something.
type ppmEscape struct {
	pageSpan
	ctx contexts
	pop popularity
}

// newPPMEscape returns an empty escape-PPM source of the given order
// (>= 1; validated by Config.Validate).
func newPPMEscape(order int) *ppmEscape { return &ppmEscape{ctx: contexts{order: order}} }

// Name implements Source.
func (p *ppmEscape) Name() string { return fmt.Sprintf("ppm-escape-%d", p.ctx.order) }

// Observe implements Source.
func (p *ppmEscape) Observe(page int) {
	p.ctx.observe(page)
	p.pop.add(page)
	p.see(page)
}

// NextInto implements Source: contexts contribute from the longest down,
// then global popularity takes the mass that escaped every order. The
// context is picked by the same explicit-state rule as PPM.NextInto.
// Popularity has seen every page, so its page count is the support size.
func (p *ppmEscape) NextInto(state int, out []float64) int {
	clear(out)
	remain := 1.0
	seen := p.ctx.match(state)
	for k := len(seen) - 1; k >= 0; k-- {
		c := seen[k]
		distinct := int64(len(c.seen))
		escape := float64(distinct) / float64(c.total+distinct)
		c.blend(out, remain*(1-escape))
		remain *= escape
	}
	p.pop.blend(out, remain)
	return len(p.pop.seen)
}

// Next implements Source.
func (p *ppmEscape) Next(state int) map[int]float64 { return nextView(p, state) }
