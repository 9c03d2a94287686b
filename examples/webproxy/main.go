// Webproxy: a client-side proxy that speculatively prefetches pages of a
// synthetic web site while the user reads, comparing three levels of
// knowledge about future accesses (paper §1: the model "presupposes some
// knowledge about future accesses"; §6 points to learned access models):
//
//   - none:    demand fetching only
//   - learned: SKP over probabilities from an order-1 dependency graph
//     learned online (Padmanabhan & Mogul-style)
//   - oracle:  SKP over the surfer's true next-page distribution
//
// All variants share one Pr+DS-arbitrated cache of equal-size slots.
//
//	go run ./examples/webproxy
package main

import (
	"fmt"
	"log"

	"prefetch"
)

const (
	requests   = 20000
	cacheSlots = 30
	readingSec = 8.0 // mean viewing time while the user reads a page
)

// step is one request of the browsing trace: the page and the time the
// user spends reading the page before it.
type step struct {
	page    int
	viewing float64
}

// browse records n requests of a random surfer over site, with
// exponential reading times truncated to at least 1s.
func browse(r *prefetch.Rand, site *prefetch.Site, n int) []step {
	surfer := prefetch.NewSurfer(r, site, 0.85)
	trace := make([]step, n)
	for i := range trace {
		v := r.Exp(1 / readingSec)
		if v < 1 {
			v = 1
		}
		trace[i] = step{page: surfer.Step(), viewing: v}
	}
	return trace
}

// proxy simulates one knowledge variant over a fixed browsing trace.
type proxy struct {
	name  string
	site  *prefetch.Site
	pred  prefetch.Predictor // nil: demand fetching only
	probs []float64          // pred's belief about the next page, by page id

	cached  map[int]bool
	freq    map[int]int64
	total   float64
	hits    int64
	fetched float64 // network seconds spent prefetching
}

func newProxy(name string, site *prefetch.Site, pred prefetch.Predictor) *proxy {
	return &proxy{
		name: name, site: site, pred: pred, probs: make([]float64, len(site.Pages)),
		cached: map[int]bool{}, freq: map[int]int64{},
	}
}

// entries snapshots the cache for arbitration, in ascending page id.
func (p *proxy) entries() []prefetch.CacheEntry {
	out := make([]prefetch.CacheEntry, 0, len(p.cached))
	for id, prob := range p.probs {
		if p.cached[id] {
			out = append(out, prefetch.CacheEntry{
				ID:        id,
				Prob:      prob,
				Retrieval: p.site.Pages[id].Retrieval,
				Freq:      p.freq[id],
			})
		}
	}
	return out
}

// replay serves the trace from the surfer's start page, page 0.
func (p *proxy) replay(trace []step) {
	page := 0
	if p.pred != nil {
		p.pred.Observe(page)
	}
	for _, stp := range trace {
		p.round(page, stp.viewing, stp.page)
		page = stp.page
	}
}

// round serves one browsing step from page state: plan, prefetch,
// observe the request.
func (p *proxy) round(state int, viewing float64, next int) {
	var accepted prefetch.Plan
	if p.pred != nil && p.pred.NextInto(state, p.probs) > 0 {
		var candidates []prefetch.Item
		for id, prob := range p.probs {
			if prob > 0 && !p.cached[id] {
				candidates = append(candidates, prefetch.Item{
					ID: id, Prob: prob, Retrieval: p.site.Pages[id].Retrieval,
				})
			}
		}
		problem := prefetch.Problem{Items: candidates, Viewing: viewing, TotalProb: 1}
		plan, _, err := prefetch.SolveSKP(problem)
		if err != nil {
			log.Fatal(err)
		}
		free := cacheSlots - len(p.cached)
		res := prefetch.Arbitrate(plan, p.entries(), free, prefetch.SubDS)
		for i, it := range res.Accepted.Items {
			if v := res.Victims[i]; v != prefetch.NoVictim {
				delete(p.cached, v)
			}
			p.cached[it.ID] = true
		}
		accepted = res.Accepted
		p.fetched += accepted.TotalRetrieval()
	}

	st := accepted.Stretch(viewing)
	var t float64
	switch {
	case accepted.Contains(next):
		t = prefetch.AccessTime(accepted, viewing, next, func(id int) float64 {
			return p.site.Pages[id].Retrieval
		})
	case p.cached[next]:
		t = 0
	default:
		t = st + p.site.Pages[next].Retrieval
		if len(p.cached) >= cacheSlots {
			if victim, ok := prefetch.DemandVictim(p.entries(), prefetch.SubDS); ok {
				delete(p.cached, victim)
			}
		}
		p.cached[next] = true
	}
	p.total += t
	if t == 0 {
		p.hits++
	}
	p.freq[next]++
	if p.pred != nil {
		p.pred.Observe(next)
	}
}

// variants builds the three knowledge levels over site.
func variants(site *prefetch.Site) []*proxy {
	// The oracle reads the true distribution at whatever page it is asked
	// about, so any surfer over the site serves.
	truth := prefetch.NewSurfer(prefetch.NewRand(1), site, 0.85)
	return []*proxy{
		newProxy("no prefetch", site, nil),
		newProxy("learned (depgraph)", site, prefetch.NewDependencyGraph()),
		newProxy("oracle probabilities", site, prefetch.NewOraclePredictor(truth)),
	}
}

func main() {
	r := prefetch.NewRand(2026)
	site, err := prefetch.GenerateSite(r, prefetch.DefaultSiteConfig())
	if err != nil {
		log.Fatal(err)
	}

	// One shared browsing trace so the variants are directly comparable.
	trace := browse(r, site, requests)
	proxies := variants(site)
	for _, p := range proxies {
		p.replay(trace)
	}

	fmt.Printf("web proxy over %d pages, %d requests, %d cache slots (Pr+DS)\n\n",
		len(site.Pages), requests, cacheSlots)
	fmt.Printf("%-22s %12s %8s %16s\n", "variant", "mean latency", "hit %", "prefetch net (s)")
	for _, p := range proxies {
		fmt.Printf("%-22s %11.3fs %7.1f%% %16.0f\n",
			p.name, p.total/float64(requests), 100*float64(p.hits)/float64(requests), p.fetched)
	}
	fmt.Println("\nThe learned model closes most of the gap to the oracle once the")
	fmt.Println("dependency graph has seen enough transitions.")
}
