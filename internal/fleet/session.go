package fleet

import (
	"sort"

	"prefetch/internal/adaptive"
	"prefetch/internal/cache"
	"prefetch/internal/core"
	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/stats"
	"prefetch/internal/webgraph"
)

// session is one browsing session against the fleet — the multiclient
// client state machine with the single server swapped for a routing
// decision per issued transfer. The RNG streams, draw order and event
// order are the multiclient ones, so a one-replica fleet without
// failures replays the single-server timeline bit for bit.
type session struct {
	id     int
	fl     *fleetRun
	site   *webgraph.Site
	surfer *webgraph.Surfer
	rand   *rng.Source

	// home anchors the parts of the model that need one server per
	// client regardless of where requests land: the shared predictor
	// the session trains and plans from, the cache its round starts
	// warm, and the congestion feedback its controller observes.
	home *replica

	pred     predict.Source
	oracle   bool
	predName string

	// Scripted mode, inherited from the sharded multiclient core: when
	// script is non-nil the session's draws and predictions were
	// precomputed by a Phase-A shard worker (multiclient.GenerateScripts)
	// — rand, surfer and pred are nil, table is the shared stationary-
	// oracle candidate table or nil, and state tracks the current page.
	script *multiclient.Script
	table  [][]core.Item
	state  int

	cache     *cache.Cache
	ready     map[int]bool
	pending   map[int]*replica // outstanding transfers, by page → serving replica
	specReady map[int]bool

	round       int
	roundsLeft  int
	finished    bool
	waitingFor  int
	demandRound bool
	requestedAt float64

	ctrl           adaptive.Controller
	curLambda      float64
	lastDemandWait float64
	prevDropped    int64
	prevDeferred   int64

	tr      obs.Tracer
	specLog []specRecord

	access            stats.Accumulator
	demandAccess      stats.Accumulator
	queueWait         stats.Accumulator
	lambdaTrace       stats.Accumulator
	l1Trace           stats.Accumulator
	prefetchIssued    int64
	prefetchDropped   int64
	prefetchCompleted int64
	prefetchUseful    int64
	demandFetches     int64
	zeroWaitRounds    int64
}

// specRecord is one completed speculative transfer awaiting its
// useful-or-wasted resolution.
type specRecord struct {
	page  int
	round int
	prob  float64
	used  bool
}

func newSession(id int, f *fleetRun) (*session, error) {
	cfg := &f.cfg.Base
	s := &session{
		id:         id,
		fl:         f,
		site:       f.site,
		tr:         f.tr,
		home:       f.replicas[f.router.Home(id, len(f.replicas))],
		ready:      map[int]bool{},
		pending:    map[int]*replica{},
		specReady:  map[int]bool{},
		roundsLeft: cfg.Rounds,
		waitingFor: -1,
	}
	s.oracle = cfg.Predict.Kind == "" || cfg.Predict.Kind == predict.KindOracle
	if f.scripts != nil {
		s.script = &f.scripts.PerClient[id]
		s.table = f.scripts.Table
		s.predName = f.scripts.PredName
	} else {
		s.rand = rng.Derive(cfg.Seed, clientLabel(id))
		s.surfer = webgraph.NewSurfer(s.rand, f.site, cfg.FollowProb)
		if cfg.DriftEvery > 0 {
			s.surfer.EnableDrift(rng.Derive(cfg.Seed, driftLabel(id)), cfg.DriftEvery)
		}
		pred, err := predict.New(cfg.Predict, id, s.surfer.NextDistributionFrom, s.home.agg)
		if err != nil {
			return nil, err
		}
		s.pred = pred
		s.predName = pred.Name()
		if !cfg.DisablePrefetch {
			s.pred.Observe(s.surfer.Current())
		}
	}
	ctrl, err := adaptive.New(cfg.Adaptive)
	if err != nil {
		return nil, err
	}
	s.ctrl = ctrl
	if cfg.ClientCacheSlots > 0 {
		cc, err := cache.New(cfg.ClientCacheSlots)
		if err != nil {
			return nil, err
		}
		s.cache = cc
	}
	return s, nil
}

func (s *session) holds(page int) bool {
	if s.cache != nil {
		return s.cache.Contains(page)
	}
	return s.ready[page]
}

func (s *session) store(fr *frequest) {
	if s.cache == nil {
		if fr.round == s.round {
			s.ready[fr.page] = true
		}
		return
	}
	s.cache.InsertLRU(fr.page, s.site.Pages[fr.page].Retrieval)
	if fr.demand {
		delete(s.specReady, fr.page)
	} else {
		s.specReady[fr.page] = true
	}
}

// startRound plans and issues this round's prefetches — each one routed
// independently — draws the viewing time and the next page, and
// schedules the demand request.
func (s *session) startRound(now float64) {
	if s.roundsLeft == 0 {
		if !s.finished {
			s.finished = true
			s.fl.sessionDone()
		}
		return
	}
	s.home.maybeWarm(now)
	s.roundsLeft--
	s.round++
	if s.cache == nil {
		s.ready = map[int]bool{}
	}

	var v float64
	if s.script != nil {
		v = s.script.Viewing[s.round-1]
	} else {
		v = s.rand.Exp(1 / s.fl.cfg.Base.MeanViewing)
		if v < s.fl.cfg.Base.MinViewing {
			v = s.fl.cfg.Base.MinViewing
		}
	}
	if s.tr != nil {
		ev := obs.Ev(now, obs.KindRoundStart, s.id)
		ev.Round = s.round
		ev.Viewing = v
		s.tr.Emit(ev)
	}

	if !s.fl.cfg.Base.DisablePrefetch {
		s.observe(now)
		plan := s.plan(v)
		for _, it := range plan.Items {
			s.prefetchIssued++
			if s.tr != nil {
				ev := obs.Ev(now, obs.KindSpecIssue, s.id)
				ev.Round = s.round
				ev.Page = it.ID
				ev.Prob = it.Prob
				ev.Service = it.Retrieval
				s.tr.Emit(ev)
			}
			rep, routed := s.fl.route(s, it.ID, false)
			if !routed {
				// Whole fleet down: like an admission drop, the transfer
				// will never happen and the page stays demand-fetchable.
				s.prefetchDropped++
				continue
			}
			ok := rep.enqueue(&frequest{
				sess:     s,
				page:     it.ID,
				duration: it.Retrieval,
				round:    s.round,
				prob:     it.Prob,
			})
			if !ok {
				s.prefetchDropped++
				continue
			}
			s.pending[it.ID] = rep
		}
	}

	var next int
	if s.script != nil {
		next = int(s.script.Next[s.round-1])
		s.state = next // the page plan() will rank from next round
	} else {
		next = s.surfer.Step()
	}
	s.fl.clock.Schedule(now+v, func() { s.request(next) })
}

// observe reads the home replica's congestion feedback and lets the
// controller set this round's λ.
func (s *session) observe(now float64) {
	snap := s.home.feedback(now)
	fb := adaptive.Feedback{
		Round:        s.round,
		Utilization:  snap.Utilization,
		QueuedDemand: snap.QueuedDemand,
		DemandDelay:  s.lastDemandWait,
		Dropped:      s.prefetchDropped - s.prevDropped,
		Deferred:     snap.DeferredTotal - s.prevDeferred,
	}
	s.prevDropped = s.prefetchDropped
	s.prevDeferred = snap.DeferredTotal
	s.curLambda = s.ctrl.Lambda(fb)
	s.lambdaTrace.Add(s.curLambda)
	if s.tr != nil {
		ev := obs.Ev(now, obs.KindLambda, s.id)
		ev.Round = s.round
		ev.Lambda = s.curLambda
		ev.Util = fb.Utilization
		ev.QueuedDemand = fb.QueuedDemand
		ev.Waited = fb.DemandDelay
		ev.Dropped = fb.Dropped
		ev.Deferred = fb.Deferred
		s.tr.Emit(ev)
	}
}

// plan solves the cost-aware SKP at the controller's current λ, exactly
// as in multiclient.
func (s *session) plan(viewing float64) core.Plan {
	var (
		state int
		l1    float64
		items []core.Item
	)
	if s.script != nil {
		// Scripted: the full ranked candidate list was precomputed (or is
		// the shared stationary table); only the timing-dependent parts —
		// the held/in-flight filter and the cap — run here. Filtering a
		// ranked list then capping equals the inline path's filter-sort-cap
		// because the ranking key is a total order independent of the
		// filter.
		state = s.state
		if s.script.L1 != nil {
			l1 = s.script.L1[s.round-1]
		}
		s.l1Trace.Add(l1)
		var cands []core.Item
		if s.table != nil {
			cands = s.table[state]
		} else {
			cands = s.script.Cands[s.round-1]
		}
		items = s.fl.planBuf[:0]
		for i := range cands {
			if len(items) == s.fl.cfg.Base.MaxCandidates {
				break
			}
			if s.holds(cands[i].ID) || s.pending[cands[i].ID] != nil {
				continue
			}
			items = append(items, cands[i])
		}
		s.fl.planBuf = items
	} else {
		state = s.surfer.Current()
		dist := s.pred.Next(state)
		if !s.oracle {
			l1 = predict.L1(dist, s.surfer.NextDistributionFrom(state))
		}
		s.l1Trace.Add(l1)
		items = make([]core.Item, 0, len(dist))
		for page, prob := range dist {
			if prob <= 0 || s.holds(page) || s.pending[page] != nil {
				continue
			}
			items = append(items, core.Item{ID: page, Prob: prob, Retrieval: s.site.Pages[page].Retrieval})
		}
		sort.Slice(items, func(a, b int) bool {
			if items[a].Prob != items[b].Prob {
				return items[a].Prob > items[b].Prob
			}
			return items[a].ID < items[b].ID
		})
		if len(items) > s.fl.cfg.Base.MaxCandidates {
			items = items[:s.fl.cfg.Base.MaxCandidates]
		}
	}
	if s.tr != nil {
		ev := obs.Ev(s.fl.clock.Now(), obs.KindPredictNext, s.id)
		ev.Round = s.round
		ev.Page = state
		ev.L1 = l1
		ev.Cands = len(items)
		s.tr.Emit(ev)
	}
	problem := core.Problem{Items: items, Viewing: viewing, TotalProb: 1}
	plan, _, err := core.SolveSKPOpts(problem, core.Options{}.WithNetworkLambda(s.curLambda))
	if err != nil {
		panic(err)
	}
	return plan
}

// request is the demand access at the end of the viewing period. A page
// already in flight is promoted at the replica serving it; otherwise the
// demand routes like any other transfer, parking if the whole fleet is
// down.
func (s *session) request(page int) {
	s.requestedAt = s.fl.clock.Now()
	if !s.fl.cfg.Base.DisablePrefetch {
		if s.pred != nil {
			// Scripted sessions trained their predictor during Phase A;
			// only the trace event belongs to the live timeline.
			s.pred.Observe(page)
		}
		if s.tr != nil {
			ev := obs.Ev(s.requestedAt, obs.KindPredictObserve, s.id)
			ev.Round = s.round
			ev.Page = page
			s.tr.Emit(ev)
		}
	}
	if s.holds(page) {
		if s.cache != nil {
			s.cache.RecordAccess(page)
			if s.specReady[page] {
				s.prefetchUseful++
				delete(s.specReady, page)
				s.markSpecUsed(page)
			}
		} else {
			s.prefetchUseful++
			s.markSpecUsed(page)
		}
		s.lastDemandWait = 0
		s.respond(0)
		return
	}
	s.waitingFor = page
	s.demandRound = true
	if s.tr != nil {
		ev := obs.Ev(s.requestedAt, obs.KindDemandIssue, s.id)
		ev.Round = s.round
		ev.Page = page
		s.tr.Emit(ev)
	}
	if rep := s.pending[page]; rep != nil {
		rep.promote(s.id, page)
		return
	}
	s.demandFetches++
	s.issueDemand(page)
}

// issueDemand routes and enqueues a demand fetch, parking it when every
// replica is down (the next recovery drains the park queue).
func (s *session) issueDemand(page int) {
	rep, ok := s.fl.route(s, page, true)
	if !ok {
		s.fl.parked = append(s.fl.parked, parkedDemand{sess: s, page: page})
		return
	}
	rep.enqueue(&frequest{
		sess:     s,
		page:     page,
		duration: s.site.Pages[page].Retrieval,
		demand:   true,
		round:    s.round,
	})
}

func (s *session) markSpecUsed(page int) {
	if s.tr == nil {
		return
	}
	for i := len(s.specLog) - 1; i >= 0; i-- {
		if s.specLog[i].page == page && !s.specLog[i].used {
			s.specLog[i].used = true
			ev := obs.Ev(s.fl.clock.Now(), obs.KindSpecUseful, s.id)
			ev.Round = s.round
			ev.Page = page
			ev.Prob = s.specLog[i].prob
			s.tr.Emit(ev)
			return
		}
	}
}

// onTransferDone is a replica's completion callback.
func (s *session) onTransferDone(fr *frequest, waited float64) {
	delete(s.pending, fr.page)
	s.queueWait.Add(waited)
	if !fr.demand {
		s.prefetchCompleted++
		if s.tr != nil {
			s.specLog = append(s.specLog, specRecord{page: fr.page, round: fr.round, prob: fr.prob})
		}
	}
	s.store(fr)
	if s.waitingFor == fr.page {
		if !fr.demand {
			s.prefetchUseful++
			delete(s.specReady, fr.page)
			s.markSpecUsed(fr.page)
		}
		s.waitingFor = -1
		s.lastDemandWait = waited
		s.respond(s.fl.clock.Now() - s.requestedAt)
	}
}

// respond closes the round and immediately begins the next one.
func (s *session) respond(access float64) {
	s.fl.lastT = s.fl.clock.Now()
	if s.tr != nil {
		ev := obs.Ev(s.fl.clock.Now(), obs.KindRoundEnd, s.id)
		ev.Round = s.round
		ev.Access = access
		ev.Demand = s.demandRound
		s.tr.Emit(ev)
	}
	s.access.Add(access)
	if s.demandRound {
		s.demandAccess.Add(access)
		s.demandRound = false
	}
	if access == 0 {
		s.zeroWaitRounds++
	}
	s.startRound(s.fl.clock.Now())
}
