package multiclient

// Sharded script generation: the parallel core that scales a multiclient
// round to 10⁵–10⁶ clients.
//
// The simulation splits into two phases. Phase A (this file) precomputes
// every client's workload script — viewing times, the page trace, and
// each round's id-ordered positives, ranked after the filter by the
// planner — in S parallel shard workers, each owning a client-id block.
// Phase B (engine.go, client.go, server.go) is the sequential event loop:
// it consumes the scripts in clock order, which is exactly the canonical
// (time, client-id) merge at every server-arbitration point.
//
// Why this is bit-for-bit deterministic for ANY shard or worker count:
// client i's random streams are derived as pure functions of (seed, i)
// (rng.Derive with the "client/i" and "client/i/drift" labels), so its
// script never depends on which worker computes it or in what order;
// workers write disjoint slice elements and share only the immutable
// site; and everything order-sensitive — server queueing, admission,
// adaptive-λ feedback, cache state — stays in Phase B on the one clock.
// Shards only change wall-clock time, never a single byte of results or
// decision traces; the extended determinism gate (shard_test.go, CI)
// diffs shards ∈ {1,4,16} × GOMAXPROCS ∈ {1,8} to hold the line.
//
// One browsing model serves both phases: a walker holds a client's
// streams, surfer and prediction source, and its step is one round of the
// model. Phase A loops the step into a Script. What can be scripted is
// every per-client prediction source (oracle, depgraph, ppm, ppm-escape,
// decay, mixture — their training stream is the client's own page trace,
// already fixed by the seed). The one exception is predict.KindShared,
// whose aggregate model couples clients through arrival order; its
// clients step their walkers live, once per round, from the event loop.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"prefetch/internal/core"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/webgraph"
)

// Script is one client's precomputed workload: everything the browsing
// model would draw or predict during the run, indexed by round.
type Script struct {
	Viewing []float64 // clamped viewing time per round
	Next    []int32   // demand page per round (state of round r+1)
	L1      []float64 // per-round prediction L1 error; nil ⇒ zero (oracle)
	// Cands is the candidate row per round: the prediction's id-ordered
	// positives, ranked after the filter — Phase B drops held and in-flight
	// pages, then ranks up to MaxCandidates survivors. nil when Table serves
	// every round. Read-only: rows may share a slab, each capped at its length.
	Cands [][]core.Item
}

// Scripts is the Phase-A output for a whole run.
type Scripts struct {
	PerClient []Script
	// Table is the shared ranked candidate table, indexed by current
	// page — the stationary oracle's distribution is a pure function of
	// (site, followProb), so one table serves every client and round.
	// nil unless the run is a stationary-oracle run with prefetching.
	Table [][]core.Item
}

// scriptingDisabled makes every client step a live walker even for
// scriptable configurations. Test hook: the equivalence tests run both
// paths over identical configurations and diff results and traces.
var scriptingDisabled bool

// Scriptable reports whether the configured run can be precomputed by
// shard workers: every prediction source except the shared aggregate,
// whose training stream interleaves clients in arrival order.
func Scriptable(cfg Config) bool {
	//lint:allow validatecfg pure predicate over one field; Run and fleet validate before executing
	return !scriptingDisabled && cfg.Predict.Kind != predict.KindShared
}

// oracleSource reports whether the planner reads the surfer's true
// next-page distribution rather than a learned prediction.
func oracleSource(cfg *Config) bool {
	return cfg.Predict.Kind == "" || cfg.Predict.Kind == predict.KindOracle
}

// GenerateScripts runs Phase A: cfg.Shards parallel workers (0 = one per
// available CPU) script disjoint client-id blocks. site is the generated
// site the run browses.
func GenerateScripts(cfg Config, site *webgraph.Site) (*Scripts, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := &Scripts{PerClient: make([]Script, cfg.Clients)}
	// One shared ranked table serves every plan of the oracle over a
	// drift-free surfer.
	if !cfg.DisablePrefetch && cfg.DriftEvery == 0 && oracleSource(&cfg) {
		sc.Table = buildRankedTable(site, cfg.FollowProb)
	}
	truth := truthTable(&cfg, site)

	workers := cfg.Shards
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Clients {
		workers = cfg.Clients
	}
	// Construction errors are pure functions of the config, so every
	// worker fails on its first client alike and errs[0] is client 0's.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := cfg.Clients * w / workers
		hi := cfg.Clients * (w + 1) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			buf := newStepScratch(len(site.Pages), truth)
			for i := lo; i < hi; i++ {
				if err := generateScript(&cfg, site, i, &sc.PerClient[i], sc.Table != nil, buf); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// generateScript records client id's browsing model round by round: each
// round is one walker step plus the observation of the page it stepped
// to, exactly what the live client performs. No timing enters anywhere,
// which is the whole reason the replay is exact. Each round's candidates
// are copied out of the worker's reused buffer into the script's current
// slab of at least scriptSlab items; a round that does not fit starts a
// new slab, so a script allocates per slab instead of per round.
func generateScript(cfg *Config, site *webgraph.Site, id int, out *Script, tabled bool, buf *stepScratch) error {
	w, err := newWalker(cfg, site, id, !cfg.DisablePrefetch && !tabled, nil, buf)
	if err != nil {
		return err
	}
	out.Viewing = make([]float64, cfg.Rounds)
	out.Next = make([]int32, cfg.Rounds)
	if w.lists {
		out.Cands = make([][]core.Item, cfg.Rounds)
		if w.pred != nil {
			out.L1 = make([]float64, cfg.Rounds)
		}
	}
	var slab []core.Item
	for r := range out.Viewing {
		cands, l1, viewing, next := w.step()
		if out.Cands != nil {
			if len(slab)+len(cands) > cap(slab) {
				slab = make([]core.Item, 0, max(scriptSlab, len(cands)))
			}
			n := len(slab)
			slab = append(slab, cands...)
			out.Cands[r] = slab[n:len(slab):len(slab)]
		}
		if out.L1 != nil {
			out.L1[r] = l1
		}
		out.Viewing[r], out.Next[r] = viewing, int32(next)
		w.observe(next)
	}
	return nil
}

// walker is one client's browsing model: its derived RNG stream, its
// surfer (drifting when configured) and the prediction source its planner
// reads. Phase A loops a walker into a Script; a live client — the shared
// predictor, whose aggregate trains in arrival order — steps one from the
// event loop. Either way a round is the same step and observe.
type walker struct {
	cfg    *Config
	site   *webgraph.Site
	rand   *rng.Source
	surfer *webgraph.Surfer
	pred   predict.Source // nil for the oracle, whose candidates are the dense truth's
	lists  bool           // step lists candidates: prefetching, no shared table
	buf    *stepScratch
}

// newWalker derives client id's streams and, when the walker lists
// candidates for a learned source, builds that source (agg is the run's
// shared aggregate, nil unless the shared predictor runs) and seeds it
// with the start page.
func newWalker(cfg *Config, site *webgraph.Site, id int, lists bool, agg *predict.Aggregate, buf *stepScratch) (*walker, error) {
	w := &walker{cfg: cfg, site: site, rand: rng.Derive(cfg.Seed, clientLabel(id)), lists: lists, buf: buf}
	w.surfer = webgraph.NewSurfer(w.rand, site, cfg.FollowProb)
	if cfg.DriftEvery > 0 {
		// Non-stationary mode: the hot set re-draws every DriftEvery rounds
		// (the surfer steps once per round) from a per-client derived
		// stream; the oracle's truth reads the current phase.
		w.surfer.EnableDrift(rng.Derive(cfg.Seed, driftLabel(id)), cfg.DriftEvery)
	}
	if lists && !oracleSource(cfg) {
		p, err := predict.New(cfg.Predict, id, w.surfer, agg)
		if err != nil {
			return nil, err
		}
		w.pred = p
		p.Observe(w.surfer.Current())
	}
	return w, nil
}

// step plays the browsing model's part of one round from the current
// page: the candidates — the id-ordered positives of the prediction,
// ranked after the filter by the planner — with the prediction's
// dense-L1 error (nil and 0 when the walker does not list candidates;
// the error is 0 for the oracle), the clamped viewing time from the
// client stream, and the next page from the surfer's split stream. A
// learned source's candidates and score come from one pass over its
// prediction and the truth (positives); the oracle's candidates are the
// truth's own positives. The candidates live in the shared scratch until
// the next step. NextInto is read-only for every source, the shared
// aggregate included, so a live client may step before its round's
// feedback read and enqueues without moving a byte.
func (w *walker) step() (cands []core.Item, l1, viewing float64, next int) {
	if w.lists {
		b := w.buf
		state := w.surfer.Current()
		truth := b.truth
		if b.table != nil {
			n := len(w.site.Pages)
			truth = b.table[state*n : (state+1)*n]
		} else {
			w.surfer.NextDistributionInto(state, truth)
		}
		pred := truth // the oracle predicts the truth, at an error of 0
		if w.pred != nil {
			w.pred.NextInto(state, b.pred)
			pred = b.pred
		}
		b.cands, l1 = positives(b.cands, pred, truth, w.site)
		cands = b.cands
	}
	viewing = w.rand.Exp(1 / w.cfg.MeanViewing)
	if viewing < w.cfg.MinViewing {
		viewing = w.cfg.MinViewing
	}
	return cands, l1, viewing, w.surfer.Step()
}

// observe feeds the demanded page to the prediction source's training
// stream (a no-op for the oracle).
func (w *walker) observe(page int) {
	if w.pred != nil {
		w.pred.Observe(page)
	}
}

// buildRankedTable ranks the stationary oracle's candidate list for every
// possible current page. ~pages² items total — hundreds of KB for the
// default site — shared read-only by every client and shard.
func buildRankedTable(site *webgraph.Site, followProb float64) [][]core.Item {
	table := make([][]core.Item, len(site.Pages))
	probs := make([]float64, len(site.Pages))
	for p := range site.Pages {
		site.NextDistributionInto(p, followProb, probs)
		table[p] = rankProbs(make([]core.Item, 0, len(probs)), probs, site)
	}
	return table
}

// truthTable returns the truth table a run's walkers share, or nil when
// they cannot share one. A learned source is scored against the true
// next-page distribution for its L1 error, and without drift that
// depends only on the current page. Row p, at [p·pages, (p+1)·pages), is
// site.NextDistributionInto(p, FollowProb), the function a drift-free
// surfer runs, so every float has the bits of a per-step computation.
// pages² floats: 115 KB at the default 120 pages. The oracle ranks into
// buildRankedTable instead, and a drifting walker computes its row each
// step.
func truthTable(cfg *Config, site *webgraph.Site) []float64 {
	if cfg.DisablePrefetch || cfg.DriftEvery > 0 || oracleSource(cfg) {
		return nil
	}
	n := len(site.Pages)
	table := make([]float64, n*n)
	for p := range site.Pages {
		site.NextDistributionInto(p, cfg.FollowProb, table[p*n:(p+1)*n])
	}
	return table
}

// stepScratch is the reusable scratch of walker steps that never run at
// once — one Phase-A worker's clients, or every live client on the event
// loop: the true next-page distribution and the learned prediction, one
// float per page, and the candidates. table is the run's truth
// table (see truthTable), or nil; every scratch of a run shares it
// read-only, and a walker reads its current page's row from it in place
// of computing truth.
type stepScratch struct {
	truth, pred []float64
	cands       []core.Item
	table       []float64
}

func newStepScratch(pages int, table []float64) *stepScratch {
	b := &stepScratch{pred: make([]float64, pages), table: table}
	if table == nil {
		b.truth = make([]float64, pages)
	}
	return b
}

// scriptSlab is the smallest slab generateScript allocates for a
// script's candidate rows: about 40 rounds of a learned source's ~25
// candidates.
const scriptSlab = 1024

// rankProbs ranks a dense distribution over page ids into dst's backing
// array: its positive-probability pages in rankCmp's order. The shared
// oracle table is the one ranked row; every other row reaches the
// planner id-ordered and is ranked there, after the filter.
func rankProbs(dst []core.Item, probs []float64, site *webgraph.Site) []core.Item {
	items, _ := positives(dst, probs, probs, site)
	slices.SortFunc(items, rankCmp)
	return items
}

// rankCmp is the candidate order the planner keeps: probability
// descending, page id ascending. It is a total order over a row's
// distinct pages.
func rankCmp(a, b core.Item) int {
	switch {
	case a.Prob > b.Prob:
		return -1
	case a.Prob < b.Prob:
		return 1
	}
	return a.ID - b.ID
}

// positives lists probs' positive-probability pages into dst's backing
// array in ascending id, fused with the prediction's score: the L1
// distance predict.L1Dense(probs, truth), in the same ascending-id pass.
// Each term is math.Abs(probs[i] − truth[i]) added in ascending i,
// L1Dense's expression in L1Dense's order, so the sum has its bits; a
// row scored against itself scores 0. probs and truth must have the same
// length, and positives panics otherwise.
func positives(dst []core.Item, probs, truth []float64, site *webgraph.Site) ([]core.Item, float64) {
	if len(probs) != len(truth) {
		panic(fmt.Sprintf("multiclient: scoring a prediction of length %d against a truth of length %d", len(probs), len(truth)))
	}
	items := dst[:0]
	var l1 float64
	for page, prob := range probs {
		l1 += math.Abs(prob - truth[page])
		if prob > 0 {
			items = append(items, core.Item{ID: page, Prob: prob, Retrieval: site.Pages[page].Retrieval})
		}
	}
	return items, l1
}
