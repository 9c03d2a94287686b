package multiclient

// Sharded script generation: the parallel core that scales a multiclient
// round to 10⁵–10⁶ clients.
//
// The simulation splits into two phases. Phase A (this file) precomputes
// every client's workload script — viewing times, the page trace, and the
// full ranked candidate list the planner would rank each round — in S
// parallel shard workers, each owning a contiguous block of client ids.
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
	// Cands is the ranked candidate list per round (probability descending,
	// page id ascending, positive only), before Phase B's timing-dependent
	// held/in-flight filter and MaxCandidates cap; nil when Table serves
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
	if w.ranks {
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
	pred   predict.Source // nil for the oracle, which ranks the dense truth
	ranks  bool           // step ranks candidates: prefetching, no shared table
	buf    *stepScratch
}

// newWalker derives client id's streams and, when the walker ranks for a
// learned source, builds that source (agg is the run's shared aggregate,
// nil unless the shared predictor runs) and seeds it with the start page.
func newWalker(cfg *Config, site *webgraph.Site, id int, ranks bool, agg *predict.Aggregate, buf *stepScratch) (*walker, error) {
	w := &walker{cfg: cfg, site: site, rand: rng.Derive(cfg.Seed, clientLabel(id)), ranks: ranks, buf: buf}
	w.surfer = webgraph.NewSurfer(w.rand, site, cfg.FollowProb)
	if cfg.DriftEvery > 0 {
		// Non-stationary mode: the hot set re-draws every DriftEvery rounds
		// (the surfer steps once per round) from a per-client derived
		// stream; the oracle's truth reads the current phase.
		w.surfer.EnableDrift(rng.Derive(cfg.Seed, driftLabel(id)), cfg.DriftEvery)
	}
	if ranks && !oracleSource(cfg) {
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
// page: the ranked candidates with the prediction's dense-L1 error (nil
// and 0 when the walker does not rank; the error is 0 for the oracle),
// the clamped viewing time from the client stream, and the next page from
// the surfer's split stream. A learned source is scored and ranked in one
// pass over its prediction and the truth (rankScored); the oracle ranks
// the truth itself. The candidates live in the shared scratch until the
// next step. NextInto is read-only for every source, the shared aggregate
// included, so a live client may step before its round's feedback read
// and enqueues without moving a byte.
func (w *walker) step() (cands []core.Item, l1, viewing float64, next int) {
	if w.ranks {
		b := w.buf
		state := w.surfer.Current()
		truth := b.truth
		if b.table != nil {
			n := len(w.site.Pages)
			truth = b.table[state*n : (state+1)*n]
		} else {
			w.surfer.NextDistributionInto(state, truth)
		}
		if w.pred != nil {
			w.pred.NextInto(state, b.pred)
			b.ranked, l1 = rankScored(b.ranked, b.pred, truth, w.site)
		} else {
			b.ranked = rankProbs(b.ranked, truth, w.site)
		}
		cands = b.ranked
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
// they cannot share one. A learned source ranks against the true
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
// float per page, and the ranked candidates. table is the run's truth
// table (see truthTable), or nil; every scratch of a run shares it
// read-only, and a walker reads its current page's row from it in place
// of computing truth.
type stepScratch struct {
	truth, pred []float64
	ranked      []core.Item
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

// rankInsertMax is the largest support ranked by insertion. Learned
// sources predict a few dozen pages and the default site's oracle 120,
// where inserting each page in place beats a sort. The insertion moves
// O(n²) items, so longer lists are sorted instead. On full-support
// oracle rows the two break even between 500 and 700 pages (insertion
// takes 0.45× the sort's time at 120 pages, 0.83× at 500 and 1.12× at
// 700); 128 keeps a margin for probabilities that ascend with page id,
// where every insertion moves the whole ranked prefix. A linear scan of
// the last 2, 4 or 8 ranked items before the binary search measured no
// faster on learned rows and slower on oracle rows, so there is none.
const rankInsertMax = 128

// rankProbs ranks a dense distribution over page ids into dst's backing
// array, in the candidate form plan() consumes: positive-probability pages
// only, probability descending with page id breaking ties. It scans pages
// in ascending id and places each one with rankInsert, so equal
// probabilities keep ascending id order; past rankInsertMax candidates
// rankSort orders the whole list the same way.
func rankProbs(dst []core.Item, probs []float64, site *webgraph.Site) []core.Item {
	items := dst[:0]
	for page, prob := range probs {
		if prob > 0 {
			items = rankInsert(items, core.Item{ID: page, Prob: prob, Retrieval: site.Pages[page].Retrieval})
		}
	}
	return rankSort(items)
}

// rankScored is rankProbs over a learned prediction, fused with its
// score: the same ranked list, and predict.L1Dense(probs, truth), in one
// ascending-id pass over both vectors. Each term is math.Abs(probs[i] −
// truth[i]) added in ascending i, L1Dense's expression in L1Dense's
// order, so the sum has its bits. probs and truth must have the same
// length, and rankScored panics otherwise.
func rankScored(dst []core.Item, probs, truth []float64, site *webgraph.Site) ([]core.Item, float64) {
	if len(probs) != len(truth) {
		panic(fmt.Sprintf("multiclient: scoring a prediction of length %d against a truth of length %d", len(probs), len(truth)))
	}
	items := dst[:0]
	var l1 float64
	for page, prob := range probs {
		l1 += math.Abs(prob - truth[page])
		if prob > 0 {
			items = rankInsert(items, core.Item{ID: page, Prob: prob, Retrieval: site.Pages[page].Retrieval})
		}
	}
	return rankSort(items), l1
}

// rankInsert appends it to a ranked list, in ascending-id arrival. While
// the list is within rankInsertMax it puts it ahead of the first item of
// strictly smaller probability, found by binary search, so equal
// probabilities keep their arrival order; past that it only appends, and
// rankSort orders the list at the end.
func rankInsert(items []core.Item, it core.Item) []core.Item {
	n := len(items)
	items = append(items, it)
	if n >= rankInsertMax {
		return items
	}
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if items[m].Prob < it.Prob {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo < n {
		copy(items[lo+1:], items[lo:n])
		items[lo] = it
	}
	return items
}

// rankSort sorts a list rankInsert stopped inserting into by the same
// order: probability descending, page id ascending. A list within
// rankInsertMax is already in that order and is returned as it is.
func rankSort(items []core.Item) []core.Item {
	if len(items) > rankInsertMax {
		slices.SortFunc(items, func(a, b core.Item) int {
			switch {
			case a.Prob > b.Prob:
				return -1
			case a.Prob < b.Prob:
				return 1
			}
			return a.ID - b.ID
		})
	}
	return items
}
