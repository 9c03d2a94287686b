package predict

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"prefetch/internal/rng"
	"prefetch/internal/webgraph"
)

// This file keeps the map-returning implementation every source had
// before NextInto, verbatim apart from type names, together with the
// map-era surfer distribution and map L1, and checks the dense sources
// against them bit for bit.

// L1 is the map-era prediction error: Σ |p(i) − q(i)| over the union of
// the two supports, summed in sorted key order so the last ulp does not
// depend on map iteration.
func L1(p, q map[int]float64) float64 {
	keys := make([]int, 0, len(p)+len(q))
	for k := range p {
		keys = append(keys, k)
	}
	for k := range q {
		if _, ok := p[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		d := p[k] - q[k]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// mapTruth is the map-era oracle: the map-accumulating random-surfer
// distribution webgraph computed before it wrote vectors. A drifting
// surfer's preference vector is private to webgraph, so mapTruth keeps a
// twin of it, re-drawn from a twin of the drift stream each time the
// surfer's phase moves on, as webgraph re-draws its own.
type mapTruth struct {
	site    *webgraph.Site
	follow  float64
	surfer  *webgraph.Surfer
	drift   *rng.Source // nil while stationary
	weights []float64   // the current phase's preferences; nil while stationary
	phase   int
}

// newMapTruth returns the map-era distribution of a surfer over site with
// damping follow; drift, if non-nil, must replay the stream the surfer's
// EnableDrift was given.
func newMapTruth(site *webgraph.Site, follow float64, surfer *webgraph.Surfer, drift *rng.Source) *mapTruth {
	m := &mapTruth{site: site, follow: follow, surfer: surfer, drift: drift}
	if drift != nil {
		m.weights = make([]float64, len(site.Pages))
		for i := range site.Pages {
			m.weights[i] = site.Pages[i].Weight
		}
	}
	return m
}

func (m *mapTruth) Observe(int) {}

func (m *mapTruth) Next(page int) map[int]float64 {
	for ; m.phase < m.surfer.Phase(); m.phase++ {
		perm := m.drift.Perm(len(m.weights))
		for i := range m.weights {
			m.weights[i] = m.site.Pages[perm[i]].Weight
		}
	}
	dist := make(map[int]float64, len(m.site.Pages))
	links := m.site.Pages[page].Links
	if len(links) > 0 {
		if m.weights == nil {
			per := m.follow / float64(len(links))
			for _, t := range links {
				dist[t] += per
			}
		} else {
			var wsum float64
			for _, t := range links {
				wsum += m.weights[t]
			}
			for _, t := range links {
				dist[t] += m.follow * m.weights[t] / wsum
			}
		}
	}
	teleport := 1 - m.follow
	if len(links) == 0 {
		teleport = 1
	}
	for i := range m.site.Pages {
		w := m.site.Pages[i].Weight
		if m.weights != nil {
			w = m.weights[i]
		}
		if w := w * teleport; w > 0 {
			dist[i] += w
		}
	}
	return dist
}

// mapSource is the map-era Source: Observe plus a map-returning Next.
type mapSource interface {
	Observe(page int)
	Next(state int) map[int]float64
}

type mapPopularity struct {
	freq  map[int]int64
	total int64
}

func (p *mapPopularity) add(page int) {
	if p.freq == nil {
		p.freq = map[int]int64{}
	}
	p.freq[page]++
	p.total++
}

func (p *mapPopularity) blend(out map[int]float64, w float64) {
	for page, n := range p.freq {
		out[page] += w * float64(n) / float64(p.total)
	}
}

type mapTransitions struct {
	edges map[int]*mapPopularity
}

func (t *mapTransitions) add(prev, next int) {
	succ := t.edges[prev]
	if succ == nil {
		if t.edges == nil {
			t.edges = map[int]*mapPopularity{}
		}
		succ = &mapPopularity{}
		t.edges[prev] = succ
	}
	succ.add(next)
}

func (t *mapTransitions) next(state int) map[int]float64 {
	out := map[int]float64{}
	if succ := t.edges[state]; succ != nil {
		succ.blend(out, 1)
	}
	return out
}

type mapContexts struct {
	order   int
	root    mapCtxNode
	history []int
	path    []*mapCtxNode
	one     [1]int
}

type mapCtxNode struct {
	mapPopularity
	older map[int]*mapCtxNode
}

func (c *mapContexts) observe(page int) {
	node := &c.root
	for i := len(c.history) - 1; i >= 0; i-- {
		next := node.older[c.history[i]]
		if next == nil {
			if node.older == nil {
				node.older = map[int]*mapCtxNode{}
			}
			next = &mapCtxNode{}
			node.older[c.history[i]] = next
		}
		next.add(page)
		node = next
	}
	if len(c.history) == c.order {
		c.history = append(c.history[:0], c.history[1:]...)
	}
	c.history = append(c.history, page)
}

func (c *mapContexts) match(state int) []*mapCtxNode {
	h := c.history
	if n := len(h); n == 0 || h[n-1] != state {
		c.one[0] = state
		h = c.one[:]
	}
	c.path = c.path[:0]
	node := &c.root
	for i := len(h) - 1; i >= 0; i-- {
		if node = node.older[h[i]]; node == nil {
			break
		}
		c.path = append(c.path, node)
	}
	return c.path
}

type mapFallback struct {
	inner mapSource
	seen  map[int]bool
}

func (f *mapFallback) Observe(page int) {
	f.seen[page] = true
	f.inner.Observe(page)
}

func (f *mapFallback) Next(state int) map[int]float64 {
	if d := f.inner.Next(state); len(d) > 0 {
		return d
	}
	out := make(map[int]float64, len(f.seen))
	per := 1 / float64(len(f.seen))
	for p := range f.seen {
		out[p] = per
	}
	return out
}

type mapAggregate struct {
	trans mapTransitions
	pop   mapPopularity
	last  map[int]int
}

func (a *mapAggregate) ObserveClient(client, page int) {
	if prev, ok := a.last[client]; ok {
		a.trans.add(prev, page)
	}
	a.last[client] = page
	a.pop.add(page)
}

func (a *mapAggregate) Next(state int) map[int]float64 { return a.trans.next(state) }

type mapClientView struct {
	agg    *mapAggregate
	client int
}

func (v *mapClientView) Observe(page int)               { v.agg.ObserveClient(v.client, page) }
func (v *mapClientView) Next(state int) map[int]float64 { return v.agg.Next(state) }

type mapDepGraph struct {
	trans mapTransitions
	last  int
	any   bool
}

func (d *mapDepGraph) Observe(item int) {
	if d.any {
		d.trans.add(d.last, item)
	}
	d.last = item
	d.any = true
}

func (d *mapDepGraph) Next(state int) map[int]float64 { return d.trans.next(state) }

type mapPPM struct {
	ctx mapContexts
}

func (p *mapPPM) Observe(item int) { p.ctx.observe(item) }

func (p *mapPPM) Next(state int) map[int]float64 {
	out := map[int]float64{}
	if seen := p.ctx.match(state); len(seen) > 0 {
		seen[len(seen)-1].blend(out, 1)
	}
	return out
}

type mapDecay struct {
	alpha  float64
	clock  int64
	states map[int]*mapDecayState
	last   int
	any    bool
}

type mapDecayState struct {
	next map[int]float64
	aged int64
}

func (d *mapDecay) Observe(page int) {
	d.clock++
	if d.any {
		st := d.states[d.last]
		if st == nil {
			st = &mapDecayState{next: map[int]float64{}}
			d.states[d.last] = st
		}
		st.age(d.alpha, d.clock)
		st.next[page]++
	}
	d.last = page
	d.any = true
}

func (st *mapDecayState) age(alpha float64, clock int64) {
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

func (d *mapDecay) Next(state int) map[int]float64 {
	out := map[int]float64{}
	st := d.states[state]
	if st == nil || len(st.next) == 0 {
		return out
	}
	keys := make([]int, 0, len(st.next))
	for page := range st.next {
		keys = append(keys, page)
	}
	sort.Ints(keys)
	var total float64
	for _, page := range keys {
		total += st.next[page]
	}
	for _, page := range keys {
		out[page] = st.next[page] / total
	}
	return out
}

type mapMixture struct {
	weight float64
	trans  mapDepGraph
	pop    mapPopularity
}

func (m *mapMixture) Observe(page int) {
	m.trans.Observe(page)
	m.pop.add(page)
}

func (m *mapMixture) Next(state int) map[int]float64 {
	out := m.trans.Next(state)
	popShare := m.weight
	if len(out) == 0 {
		popShare = 1
	}
	for page, p := range out {
		out[page] = (1 - m.weight) * p
	}
	m.pop.blend(out, popShare)
	return out
}

type mapPPMEscape struct {
	ctx mapContexts
	pop mapPopularity
}

func (p *mapPPMEscape) Observe(page int) {
	p.ctx.observe(page)
	p.pop.add(page)
}

func (p *mapPPMEscape) Next(state int) map[int]float64 {
	out := map[int]float64{}
	remain := 1.0
	seen := p.ctx.match(state)
	for k := len(seen) - 1; k >= 0; k-- {
		c := seen[k]
		distinct := int64(len(c.freq))
		escape := float64(distinct) / float64(c.total+distinct)
		c.blend(out, remain*(1-escape))
		remain *= escape
	}
	p.pop.blend(out, remain)
	return out
}

// newMapSource builds the map-era source for cfg (defaults applied);
// truth and shared play New's hooks.
func newMapSource(cfg Config, client int, truth *mapTruth, shared *mapAggregate) mapSource {
	cfg = cfg.withDefaults()
	var src mapSource
	switch cfg.Kind {
	case KindOracle:
		return truth
	case KindDepGraph:
		src = &mapDepGraph{}
	case KindPPM:
		src = &mapPPM{ctx: mapContexts{order: cfg.Order}}
	case KindShared:
		src = &mapClientView{agg: shared, client: client}
	case KindDecay:
		src = &mapDecay{alpha: math.Exp2(-1 / cfg.HalfLife), states: map[int]*mapDecayState{}}
	case KindMixture:
		src = &mapMixture{weight: cfg.MixWeight}
	case KindPPMEscape:
		src = &mapPPMEscape{ctx: mapContexts{order: cfg.Order}}
	}
	if cfg.ColdStart == FallbackUniform {
		src = &mapFallback{inner: src, seen: map[int]bool{}}
	}
	return src
}

// denseConfigs is every source setting the equivalence and allocation
// tests cover: each kind, PPM and escape-PPM at orders 1–4, two decay
// half-lives (the short one prunes) and two mixture weights, all under
// both cold-start modes.
func denseConfigs() []Config {
	var cfgs []Config
	for _, mode := range []Fallback{FallbackNone, FallbackUniform} {
		add := func(c Config) {
			c.ColdStart = mode
			cfgs = append(cfgs, c)
		}
		add(Config{Kind: KindOracle})
		add(Config{Kind: KindDepGraph})
		add(Config{Kind: KindShared})
		for order := 1; order <= 4; order++ {
			add(Config{Kind: KindPPM, Order: order})
			add(Config{Kind: KindPPMEscape, Order: order})
		}
		add(Config{Kind: KindDecay, HalfLife: 3})
		add(Config{Kind: KindDecay, HalfLife: 500})
		add(Config{Kind: KindMixture, MixWeight: 0.25})
		add(Config{Kind: KindMixture, MixWeight: 0.6})
	}
	return cfgs
}

// denseLabel names a denseConfigs entry by the settings it varies.
func denseLabel(cfg Config) string {
	switch cfg.Kind {
	case KindPPM, KindPPMEscape:
		return fmt.Sprintf("%s/order=%d/%s", cfg.Kind, cfg.Order, cfg.ColdStart)
	case KindDecay:
		return fmt.Sprintf("%s/half-life=%v/%s", cfg.Kind, cfg.HalfLife, cfg.ColdStart)
	case KindMixture:
		return fmt.Sprintf("%s/weight=%v/%s", cfg.Kind, cfg.MixWeight, cfg.ColdStart)
	}
	return fmt.Sprintf("%s/%s", cfg.Kind, cfg.ColdStart)
}

// TestNextIntoMatchesMapNext drives each dense source and its map-era
// twin with the same stream — a surfer over a small site whose hot set
// switches halfway, as under drift — and after every observation
// compares both NextInto and the Next view with the map-era Next, at the
// last page and at an off-history state, with math.Float64bits and the
// support count. The shared kind runs two client views over one
// aggregate with interleaved streams; the oracle reads the surfer's true
// distribution, in two more rows also on a stationary surfer and on one
// whose hot set shifts every 40 steps.
func TestNextIntoMatchesMapNext(t *testing.T) {
	const pages, steps = 24, 600
	type row struct {
		label      string
		cfg        Config
		driftEvery int // 0 = stationary
	}
	var rows []row
	for _, cfg := range denseConfigs() {
		rows = append(rows, row{denseLabel(cfg), cfg, steps / 2})
	}
	rows = append(rows,
		row{"oracle/stationary", Config{Kind: KindOracle}, 0},
		row{"oracle/drift-every=40", Config{Kind: KindOracle}, 40})
	for _, row := range rows {
		cfg := row.cfg
		t.Run(row.label, func(t *testing.T) {
			r := rng.New(41)
			site, err := webgraph.Generate(r, webgraph.SiteConfig{
				Pages: pages, MinLinks: 2, MaxLinks: 5, ZipfS: 1.1,
				MinSizeKB: 2, MaxSizeKB: 120, BandwidthKBps: 16, LatencyS: 0.3,
			})
			if err != nil {
				t.Fatal(err)
			}
			surfer := webgraph.NewSurfer(r, site, 0.85)
			var drift *rng.Source
			if row.driftEvery > 0 {
				surfer.EnableDrift(rng.New(43), row.driftEvery)
				drift = rng.New(43)
			}
			truth := newMapTruth(site, 0.85, surfer, drift)
			agg, mapAgg := NewAggregate(), &mapAggregate{last: map[int]int{}}
			var dense [2]Source
			var ref [2]mapSource
			for c := range dense {
				if dense[c], err = New(cfg, c, surfer, agg); err != nil {
					t.Fatal(err)
				}
				ref[c] = newMapSource(cfg, c, truth, mapAgg)
			}
			out := make([]float64, pages)
			for step := 0; step < steps; step++ {
				c := step % 2
				if cfg.Kind != KindShared {
					c = 0
				}
				page := surfer.Step()
				dense[c].Observe(page)
				ref[c].Observe(page)
				for _, state := range []int{page, r.IntN(pages)} {
					want := ref[c].Next(state)
					n := dense[c].NextInto(state, out)
					assertDenseBits(t, step, state, out, n, want)
					view := dense[c].Next(state)
					if len(view) != len(want) {
						t.Fatalf("step %d: Next(%d) has %d pages, map-era Next %d", step, state, len(view), len(want))
					}
					for p, v := range want {
						if got, ok := view[p]; !ok || math.Float64bits(got) != math.Float64bits(v) {
							t.Fatalf("step %d: Next(%d)[%d] = %v, map-era Next %v", step, state, p, got, v)
						}
					}
				}
			}
			if row.driftEvery > 0 && surfer.Phase() != steps/row.driftEvery {
				t.Fatalf("surfer reached phase %d, want %d", surfer.Phase(), steps/row.driftEvery)
			}
		})
	}
}

// assertDenseBits checks a NextInto result against a map distribution:
// the same support count, the map's bits at its pages and +0 elsewhere.
func assertDenseBits(t *testing.T, step, state int, out []float64, n int, want map[int]float64) {
	t.Helper()
	if n != len(want) {
		t.Fatalf("step %d: NextInto(%d) support %d, map-era Next has %d pages", step, state, n, len(want))
	}
	for p, v := range out {
		if math.Float64bits(v) != math.Float64bits(want[p]) {
			t.Fatalf("step %d: NextInto(%d)[%d] = %v (%#x), map-era Next %v", step, state, p, v, math.Float64bits(v), want[p])
		}
	}
}

// TestNextIntoZeroAlloc: after warm-up, every source's NextInto
// allocates nothing, at the last page, at a seen off-history state and at
// a state it has never seen (the uniform fallback's path).
func TestNextIntoZeroAlloc(t *testing.T) {
	surfer := testSurfer(t, 3)
	pages := surfer.Pages()
	for _, cfg := range denseConfigs() {
		t.Run(denseLabel(cfg), func(t *testing.T) {
			src, err := New(cfg, 0, surfer, NewAggregate())
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(5)
			last := 0
			for i := 0; i < 2000; i++ {
				last = r.IntN(pages - 1)
				src.Observe(last)
			}
			out := make([]float64, pages)
			for _, state := range []int{last, (last + 1) % (pages - 1), pages - 1} {
				if allocs := testing.AllocsPerRun(100, func() { src.NextInto(state, out) }); allocs != 0 {
					t.Errorf("NextInto(%d): %v allocations per call, want 0", state, allocs)
				}
			}
		})
	}
}
