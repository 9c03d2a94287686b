package multiclient

import (
	"prefetch/internal/adaptive"
	"prefetch/internal/cache"
	"prefetch/internal/core"
	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/stats"
	"prefetch/internal/webgraph"
)

// client is one browsing session: a browsing model (a random surfer with
// its own derived RNG stream and a pluggable prediction source — the
// oracle's true next-page distribution, or a model learned online from the
// access stream), an SKP planner, and a private client-side cache. It runs
// as a callback state machine on the shared clock so any number of clients
// interleave on the same timeline. Every transfer it issues goes to a
// server: the only one, or the one the run's router picks.
type client struct {
	id    int
	cfg   *Config
	clock *netsim.Clock
	eng   *engine
	site  *webgraph.Site

	// home anchors the parts of the model that need one server per
	// client regardless of where requests land: the shared predictor the
	// client trains and plans from, the cache its round starts warm, and
	// the congestion feedback its controller observes.
	home *server

	// The browsing model (see shard.go) plays each round from exactly one
	// of: script, precomputed by a Phase-A shard worker, with table the
	// shared ranked candidate table (stationary oracle) or nil; or walk,
	// a live walker stepped once per round. state is the surfer's page:
	// the round plans from it, then requests the page drawn next.
	script *Script
	table  [][]core.Item
	walk   *walker
	state  int

	// Page-indexed per-round state (the page space is dense 0..P-1, so
	// arrays replace the seed's maps on the hot path). ready is a round
	// stamp — ready[p] == round ⇔ a prefetch of p completed this round —
	// so "clear the set" at round start is free (rounds start at 1, the
	// zero stamp never matches). pending records which server holds each
	// outstanding prefetch, as 1 + its id (0 = none); specReady is a plain
	// flag.
	cache     *cache.Cache // nil ⇒ per-round prefetch-only semantics
	ready     []int        // prefetches completed this round (cache == nil)
	pending   []int32      // prefetches requested, not yet completed: 1 + server id
	specReady []bool       // cached pages whose latest store was speculative and unused

	round       int
	roundsLeft  int
	finished    bool // retired from the run's active count
	waitingFor  int  // page the client is blocked on; -1 when browsing
	demandRound bool // this round needed a network fetch (shared or own)
	requestedAt float64

	// demandFn is the one demand timer the client ever has in flight,
	// preallocated once so startRound does not close over the drawn page
	// each round.
	demandFn func()

	// Closed-loop speculation control (internal/adaptive): the controller
	// maps each round's congestion feedback to the λ the plan is priced
	// at. The bookkeeping below carries the client's own observations
	// between rounds. ctrlStatic marks the static controller, whose λ
	// ignores feedback entirely: with tracing off nothing consumes the
	// congestion snapshot, so observe can skip the (pure, read-only)
	// utilisation estimate without changing a single result byte.
	ctrl           adaptive.Controller
	ctrlStatic     bool
	curLambda      float64
	lastDemandWait float64 // own demand queueing delay observed last round
	prevDropped    int64   // own admission drops at the last feedback
	prevDeferred   int64   // server-wide deferral total at the last feedback

	// tr is the run's normalised tracer (nil = disabled). specLog
	// records completed speculative transfers while tracing so the
	// post-run pass can attribute each one as useful or wasted.
	tr      obs.Tracer
	specLog []specRecord

	access            stats.Accumulator
	demandAccess      stats.Accumulator // access times of rounds that fetched
	queueWait         stats.Accumulator
	lambdaTrace       stats.Accumulator // λ used each planned round
	l1Trace           stats.Accumulator // prediction L1 error each planned round
	prefetchIssued    int64
	prefetchDropped   int64 // speculative submissions the servers' admission refused
	prefetchCompleted int64 // speculative transfers that finished
	prefetchUseful    int64 // completed speculative transfers that served a demand
	demandFetches     int64
	zeroWaitRounds    int64
}

// specRecord is one completed speculative transfer awaiting its
// useful-or-wasted resolution, with the predictor candidate
// probability that justified issuing it.
type specRecord struct {
	page  int
	round int // round the prefetch was planned in
	prob  float64
	used  bool
}

func newClient(id int, e *engine, scripts *Scripts, script *Script) (*client, error) {
	cfg, site := e.cfg, e.site
	c := &client{
		id:         id,
		cfg:        cfg,
		clock:      &e.clock,
		eng:        e,
		home:       e.servers[0],
		site:       site,
		tr:         e.tr,
		ready:      make([]int, len(site.Pages)),
		pending:    make([]int32, len(site.Pages)),
		specReady:  make([]bool, len(site.Pages)),
		roundsLeft: cfg.Rounds,
		waitingFor: -1,
	}
	if e.router != nil {
		c.home = e.servers[e.router.Home(id, len(e.servers))]
	}
	c.demandFn = func() { c.request(c.state) }
	var err error
	if script != nil {
		c.script, c.table = script, scripts.Table
	} else if c.walk, err = newWalker(cfg, site, id, !cfg.DisablePrefetch, c.home.agg, e.scratch); err != nil {
		return nil, err
	}
	ctrl, err := adaptive.New(cfg.Adaptive)
	if err != nil {
		return nil, err
	}
	c.ctrl = ctrl
	c.ctrlStatic = cfg.Adaptive.Kind == "" || cfg.Adaptive.Kind == adaptive.KindStatic
	if cfg.ClientCacheSlots > 0 {
		cc, err := cache.New(cfg.ClientCacheSlots)
		if err != nil {
			return nil, err
		}
		c.cache = cc
	}
	return c, nil
}

// holds reports whether the page is usable without a network fetch.
func (c *client) holds(page int) bool {
	if c.cache != nil {
		return c.cache.Contains(page)
	}
	return c.ready[page] == c.round
}

// store keeps a completed retrieval. Without a client cache the item is
// usable only within the round that planned it: a leftover completing
// later is pure waste, and so is one that completed in an earlier round
// even when this round requests its page, which is fetched again. (A
// netsim.Session without KeepItems differs there: it keeps a leftover
// prefetch for the round that requests it.)
// specReady tracks which resident pages owe their residency to an unused
// speculative transfer: residency only changes through store and LRU
// eviction, and attribution only happens while the page is held, so the
// latest store always determines the flag correctly.
func (c *client) store(req request) {
	if c.cache == nil {
		if req.round == c.round {
			c.ready[req.page] = c.round
		}
		return
	}
	c.cache.InsertLRU(req.page, c.site.Pages[req.page].Retrieval)
	c.specReady[req.page] = !req.demand
}

// startRound plans and issues this round's prefetches, draws the viewing
// time and the next page, and schedules the demand request. Leftover
// transfers from earlier rounds stay in the server queue and intrude on
// this round — the §4.4 stretch generalised to a shared link.
func (c *client) startRound(now float64) {
	if c.roundsLeft == 0 {
		if !c.finished {
			c.finished = true
			c.eng.active--
		}
		return
	}
	// Server-side prefetching piggybacks on round starts: the warmer is
	// internally rate-limited and a no-op unless cache warming is enabled.
	c.home.maybeWarm(now)
	c.roundsLeft--
	c.round++ // advancing the round stamp implicitly clears c.ready

	cands, l1, v, next := c.draw()
	if c.tr != nil {
		ev := obs.Ev(now, obs.KindRoundStart, c.id)
		ev.Round = c.round
		ev.Viewing = v
		c.tr.Emit(ev)
	}

	if !c.cfg.DisablePrefetch {
		c.observe(now)
		plan := c.plan(v, cands, l1)
		for _, it := range plan.Items {
			c.prefetchIssued++
			if c.tr != nil {
				ev := obs.Ev(now, obs.KindSpecIssue, c.id)
				ev.Round = c.round
				ev.Page = it.ID
				ev.Prob = it.Prob
				ev.Service = it.Retrieval
				c.tr.Emit(ev)
			}
			// Either way no transfer will happen, so the page must stay
			// requestable on demand. Only an admission refusal counts as
			// a drop: an outage is not admission pressure.
			srv, ok := c.target(it.ID, false)
			if !ok {
				continue // every server is down
			}
			if !srv.enqueue(request{
				client:   c,
				page:     it.ID,
				duration: it.Retrieval,
				round:    c.round,
				prob:     it.Prob,
			}) {
				c.prefetchDropped++
				continue
			}
			c.pending[it.ID] = int32(srv.id + 1)
		}
	}

	c.state = next
	c.clock.Schedule(now+v, c.demandFn)
}

// draw plays the browsing model's part of this round — the candidates
// (the shared table's ranked row, or id-ordered positives that choose
// ranks after its filter) and prediction error, the viewing time and the
// next page — from the script or, for a live client, from one walker
// step.
func (c *client) draw() (cands []core.Item, l1, viewing float64, next int) {
	if c.walk != nil {
		return c.walk.step()
	}
	r := c.round - 1
	switch {
	case c.table != nil:
		cands = c.table[c.state]
	case c.script.Cands != nil:
		cands = c.script.Cands[r]
	}
	if c.script.L1 != nil {
		l1 = c.script.L1[r]
	}
	return cands, l1, c.script.Viewing[r], int(c.script.Next[r])
}

// observe closes the feedback loop: it reads the server's congestion
// snapshot and the client's own last-round observations, and lets the
// controller set this round's λ. Feedback collection is read-only, so
// the static controller's timeline is bit-for-bit the fixed-λ planner's.
func (c *client) observe(now float64) {
	if c.ctrlStatic && c.tr == nil {
		// The static controller ignores feedback and no trace records it;
		// the snapshot read is pure, so skipping it cannot change results.
		c.curLambda = c.ctrl.Lambda(adaptive.Feedback{Round: c.round})
		c.lambdaTrace.Add(c.curLambda)
		return
	}
	// The scheduler's counters run across failures, so the deferral
	// delta below never jumps backwards after a recovery.
	snap := c.home.sched.Snapshot(now)
	fb := adaptive.Feedback{
		Round:        c.round,
		Utilization:  snap.Utilization,
		QueuedDemand: snap.QueuedDemand,
		DemandDelay:  c.lastDemandWait,
		Dropped:      c.prefetchDropped - c.prevDropped,
		Deferred:     snap.DeferredTotal - c.prevDeferred,
	}
	c.prevDropped = c.prefetchDropped
	c.prevDeferred = snap.DeferredTotal
	c.curLambda = c.ctrl.Lambda(fb)
	c.lambdaTrace.Add(c.curLambda)
	if c.tr != nil {
		ev := obs.Ev(now, obs.KindLambda, c.id)
		ev.Round = c.round
		ev.Lambda = c.curLambda
		ev.Util = fb.Utilization
		ev.QueuedDemand = fb.QueuedDemand
		ev.Waited = fb.DemandDelay
		ev.Dropped = fb.Dropped
		ev.Deferred = fb.Deferred
		c.tr.Emit(ev)
	}
}

// plan solves the cost-aware SKP at the controller's current λ over the
// round's candidates (choose), and records the prediction's L1 error
// against the surfer's true distribution (zero for the oracle).
func (c *client) plan(viewing float64, cands []core.Item, l1 float64) core.Plan {
	c.l1Trace.Add(l1)
	items := c.choose(cands, c.table != nil)
	if c.tr != nil {
		ev := obs.Ev(c.clock.Now(), obs.KindPredictNext, c.id)
		ev.Round = c.round
		ev.Page = c.state
		ev.L1 = l1
		ev.Cands = len(items)
		c.tr.Emit(ev)
	}
	problem := core.Problem{Items: items, Viewing: viewing, TotalProb: 1}
	plan, _, err := c.eng.solver.Solve(problem, core.Options{}.WithNetworkLambda(c.curLambda))
	if err != nil {
		// The problem is constructed valid by design; a failure here is a
		// simulator bug, not a configuration error.
		panic(err)
	}
	return plan
}

// choose keeps the MaxCandidates most likely of the round's candidates
// that are neither held nor in flight, in rankCmp's order, to bound the
// solver's search. A ranked row (the shared oracle table) is filtered in
// order and stops at the cap. Any other row holds id-ordered positives:
// each survivor of the filter is inserted into a ranked buffer of at most
// MaxCandidates items, and a candidate that cannot beat a full buffer's
// last item is skipped before its held probe. Both give rank → filter →
// cap's items in its order, because rankCmp is a total order that does
// not depend on the filter. The items live in the engine's plan buffer
// until the next choose.
func (c *client) choose(cands []core.Item, ranked bool) []core.Item {
	k := c.cfg.MaxCandidates
	items := c.eng.planBuf[:0]
	if ranked {
		for i := range cands {
			if len(items) == k {
				break
			}
			if c.holds(cands[i].ID) || c.pending[cands[i].ID] != 0 {
				continue
			}
			items = append(items, cands[i])
		}
	} else {
		for _, it := range cands {
			n := len(items)
			if n == k && rankCmp(it, items[n-1]) >= 0 {
				continue
			}
			if c.holds(it.ID) || c.pending[it.ID] != 0 {
				continue
			}
			if n < k {
				items = append(items, it)
			} else {
				n-- // it displaces the last item
			}
			for ; n > 0 && rankCmp(it, items[n-1]) < 0; n-- {
				items[n] = items[n-1]
			}
			items[n] = it
		}
	}
	c.eng.planBuf = items // retain any growth for the next plan
	return items
}

// request is the demand access at the end of the viewing period. The
// accessed page is also the next item of the prediction source's training
// stream (a no-op for the oracle).
func (c *client) request(page int) {
	c.requestedAt = c.clock.Now()
	if !c.cfg.DisablePrefetch {
		if c.walk != nil {
			// Scripted clients trained their predictor during Phase A;
			// only the trace event belongs to the live timeline.
			c.walk.observe(page)
		}
		if c.tr != nil {
			ev := obs.Ev(c.requestedAt, obs.KindPredictObserve, c.id)
			ev.Round = c.round
			ev.Page = page
			c.tr.Emit(ev)
		}
	}
	if c.holds(page) {
		if c.cache != nil {
			c.cache.RecordAccess(page)
			if c.specReady[page] {
				c.prefetchUseful++
				c.specReady[page] = false
				c.markSpecUsed(page)
			}
		} else {
			// Without a client cache every held page was prefetched this
			// round: the hit is speculation paying off by definition.
			c.prefetchUseful++
			c.markSpecUsed(page)
		}
		c.lastDemandWait = 0
		c.respond(0)
		return
	}
	c.waitingFor = page
	c.demandRound = true
	if c.tr != nil {
		ev := obs.Ev(c.requestedAt, obs.KindDemandIssue, c.id)
		ev.Round = c.round
		ev.Page = page
		c.tr.Emit(ev)
	}
	if at := c.pending[page]; at != 0 {
		// Already queued or in flight as a prefetch: sequential semantics,
		// the demand waits for the speculative transfer to finish — but the
		// serving scheduler learns the transfer is now demand-critical, so
		// class-aware disciplines stop deprioritising it. Under FIFO this
		// is a pure accounting change and reorders nothing.
		c.eng.servers[at-1].promote(c.id, page)
		return
	}
	c.demandFetches++
	srv, ok := c.target(page, true)
	if !ok {
		// Every server is down: the demand parks until a recovery.
		c.eng.parked = append(c.eng.parked, parkedDemand{client: c, page: page})
		return
	}
	srv.enqueue(c.demandRequest(page))
}

// demandRequest is the demand fetch of page in the current round.
func (c *client) demandRequest(page int) request {
	return request{
		client:   c,
		page:     page,
		duration: c.site.Pages[page].Retrieval,
		demand:   true,
		round:    c.round,
	}
}

// target picks the server for a new transfer of page: the only server
// when the run has no router, otherwise the router's traced choice. It
// reports false when every server is down.
func (c *client) target(page int, demand bool) (*server, bool) {
	if c.eng.router == nil {
		return c.home, true
	}
	return c.eng.route(c, page, demand)
}

// markSpecUsed resolves the latest unused speculative transfer of page
// as useful, while tracing (specLog is only kept then).
func (c *client) markSpecUsed(page int) {
	if c.tr == nil {
		return
	}
	for i := len(c.specLog) - 1; i >= 0; i-- {
		if c.specLog[i].page == page && !c.specLog[i].used {
			c.specLog[i].used = true
			ev := obs.Ev(c.clock.Now(), obs.KindSpecUseful, c.id)
			ev.Round = c.round
			ev.Page = page
			ev.Prob = c.specLog[i].prob
			c.tr.Emit(ev)
			return
		}
	}
}

// onTransferDone is the server's completion callback.
func (c *client) onTransferDone(req request, waited float64) {
	c.pending[req.page] = 0
	c.queueWait.Add(waited)
	if !req.demand {
		c.prefetchCompleted++
		if c.tr != nil {
			c.specLog = append(c.specLog, specRecord{page: req.page, round: req.round, prob: req.prob})
		}
	}
	c.store(req)
	if c.waitingFor == req.page {
		if !req.demand {
			// A promoted prefetch finishing the demand it was promoted
			// for: the speculative transfer served a real access.
			c.prefetchUseful++
			c.specReady[req.page] = false
			c.markSpecUsed(req.page)
		}
		c.waitingFor = -1
		c.lastDemandWait = waited
		c.respond(c.clock.Now() - c.requestedAt)
	}
}

// respond closes the round and immediately begins the next one.
func (c *client) respond(access float64) {
	c.eng.lastT = c.clock.Now()
	if c.tr != nil {
		ev := obs.Ev(c.clock.Now(), obs.KindRoundEnd, c.id)
		ev.Round = c.round
		ev.Access = access
		ev.Demand = c.demandRound
		c.tr.Emit(ev)
	}
	c.access.Add(access)
	if c.demandRound {
		c.demandAccess.Add(access)
		c.demandRound = false
	}
	if access == 0 {
		c.zeroWaitRounds++
	}
	c.startRound(c.clock.Now())
}
