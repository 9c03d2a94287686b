package multiclient

import (
	"fmt"
	"math"

	"prefetch/internal/cache"
	"prefetch/internal/core"
	"prefetch/internal/eventq"
	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
	"prefetch/internal/webgraph"
)

// request is one retrieval submitted to the shared server, demand or
// speculative, tagged with the client round that issued it so stale
// prefetch completions can be recognised. It rides through the scheduling
// subsystem as the opaque Tag of a schedsrv.Request — as a pooled pointer,
// so tagging does not box a fresh copy per submission. The node is
// recycled when the transfer's lifecycle ends (completion callback done,
// or refused by admission).
type request struct {
	client   *client
	page     int
	duration float64 // origin service time (before any server-cache hit)
	demand   bool
	round    int
	prob     float64 // plan-time candidate probability (speculative only)
}

// server is the shared bottleneck every client contends for. Since PR 2 it
// owns only the storage side — the optional shared server-side cache that
// shortens the service of pages it holds — and delegates every queueing,
// ordering, shaping and admission decision to a schedsrv.Scheduler, whose
// discipline is chosen by Config.Sched. The seed behaviour (one FIFO queue
// over `concurrency` slots, demand and prefetch traffic indistinguishable)
// is schedsrv.KindFIFO and replays the seed's timelines bit for bit.
type server struct {
	sched     *schedsrv.Scheduler
	hitFactor float64
	cache     *cache.Cache // nil ⇒ no shared cache

	clock *netsim.Clock
	tr    obs.Tracer // normalised by Run; nil = tracing disabled

	// reqPool recycles the tag records riding through the scheduler, and
	// solver is the one branch-and-bound scratch space every client's
	// plan() shares — the event loop runs clients one at a time and each
	// plan is consumed before the next Solve, so a single solver is safe.
	reqPool eventq.FreeList[request]
	solver  *core.Solver
	planBuf []core.Item
	sorter  itemSorter

	served    int64
	cacheHits int64

	// Server-side prefetching (Config.WarmServerCache): the warmer
	// pre-admits the shared aggregate model's top-probability pages into
	// the cache on a per-viewing-time cadence, so population-hot pages
	// are fast before any client's traffic demands them.
	agg          *predict.Aggregate
	site         *webgraph.Site
	warmEvery    float64      // minimum simulated time between warm passes
	warmedAt     float64      // time of the last warm pass
	warmPages    map[int]bool // resident pages placed by the warmer, not yet evicted
	warmInserted int64
	warmHits     int64
}

func newServer(clock *netsim.Clock, cfg Config, tr obs.Tracer) (*server, error) {
	scfg := cfg.Sched
	scfg.Concurrency = cfg.ServerConcurrency
	sched, err := schedsrv.New(clock, scfg)
	if err != nil {
		return nil, err
	}
	sched.Tracer = tr
	s := &server{
		sched:     sched,
		hitFactor: cfg.ServerHitFactor,
		clock:     clock,
		tr:        tr,
		solver:    core.NewSolver(),
	}
	if cfg.ServerCacheSlots > 0 {
		c, err := cache.New(cfg.ServerCacheSlots)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	sched.ServiceTime = s.serviceTime
	sched.Done = s.done
	return s, nil
}

// enqueue submits a request to the scheduling subsystem. It reports false
// when admission control dropped a speculative request: the transfer will
// never happen and no completion callback will fire. The tag node is
// recycled immediately on a drop (the scheduler has already detached it)
// and otherwise lives until done releases it.
func (s *server) enqueue(r request) bool {
	rq := s.reqPool.Get()
	*rq = r
	if !s.sched.Submit(schedsrv.Request{
		Client:  r.client.id,
		Page:    r.page,
		Service: r.duration,
		Demand:  r.demand,
		Tag:     rq,
	}) {
		*rq = request{} // drop the client pointer before the pool keeps the node
		s.reqPool.Put(rq)
		return false
	}
	return true
}

// promote tells the scheduler the demand for a page arrived while its
// speculative transfer is still outstanding, so disciplines that separate
// the classes stop treating it as deferrable speculation.
func (s *server) promote(clientID, page int) bool {
	return s.sched.Promote(clientID, page)
}

// snapshot feeds the scheduler's congestion state back to adaptive
// clients. Reading it never mutates the scheduler.
func (s *server) snapshot(now float64) schedsrv.Feedback {
	return s.sched.Snapshot(now)
}

// serviceTime is the scheduler's service-start hook: a server-cache hit
// means the page is already at the server, so only the hitFactor fraction
// of the origin time is spent. Preemption restarts re-resolve the cache
// (the second attempt's timing is real) but count as neither a new
// request nor a new hit — served and cacheHits count logical requests.
func (s *server) serviceTime(r *schedsrv.Request) float64 {
	first := r.Attempt() == 1
	if first {
		s.served++
	}
	service := r.Service
	if s.cache != nil && s.cache.Contains(r.Page) {
		s.cache.RecordAccess(r.Page)
		service *= s.hitFactor
		if first {
			s.cacheHits++
			warm := s.warmPages[r.Page]
			if warm {
				s.warmHits++
			}
			if s.tr != nil {
				ev := obs.Ev(s.clock.Now(), obs.KindCacheHit, r.Client)
				ev.Page = r.Page
				if warm {
					ev.Note = "warm"
				}
				s.tr.Emit(ev)
			}
		}
	}
	return service
}

// done is the scheduler's completion callback. The transfer_done event
// carries the issue class (req.demand), not the scheduler's possibly
// promoted class — attribution follows why the transfer was requested.
func (s *server) done(r *schedsrv.Request, service, waited float64) {
	req := r.Tag.(*request)
	if s.tr != nil {
		ev := obs.Ev(s.clock.Now(), obs.KindTransferDone, req.client.id)
		ev.Round = req.round
		ev.Page = req.page
		ev.Demand = req.demand
		ev.Service = service
		ev.Waited = waited
		s.tr.Emit(ev)
	}
	if s.cache != nil {
		s.insertCache(req.page, req.duration)
	}
	req.client.onTransferDone(*req, waited)
	*req = request{} // drop the client pointer before the pool keeps the node
	s.reqPool.Put(req)
}

// enableWarming arms the server-side prefetcher: agg is the run's shared
// aggregate model and the warm cadence is one mean viewing time. A no-op
// configuration-wise unless Config.WarmServerCache is set (Validate
// guarantees the cache and the shared predictor exist when it is).
func (s *server) enableWarming(cfg Config, agg *predict.Aggregate, site *webgraph.Site) {
	if !cfg.WarmServerCache {
		return
	}
	// maybeWarm fires whenever now >= warmedAt+warmEvery, so a zero (or
	// NaN) cadence would degenerate into warming on every event (or
	// never). Config.Validate rejects such MeanViewing values; a config
	// path that bypasses it is a simulator bug.
	if !(cfg.MeanViewing > 0) {
		panic(fmt.Sprintf("multiclient: warm cadence %v (need > 0; config not validated?)", cfg.MeanViewing))
	}
	s.agg = agg
	s.site = site
	s.warmEvery = cfg.MeanViewing
	s.warmedAt = math.Inf(-1)
	s.warmPages = map[int]bool{}
}

// maybeWarm runs one warm pass if warming is armed and the cadence has
// elapsed: the aggregate model's current top pages (up to the cache
// capacity) are pre-admitted, evicting an LRU victim only when the victim
// is strictly colder in the pooled popularity estimate — so warming
// converges on the hot set instead of thrashing against demand-warmed
// entries.
func (s *server) maybeWarm(now float64) {
	if s.agg == nil || now < s.warmedAt+s.warmEvery {
		return
	}
	s.warmedAt = now
	for _, page := range s.agg.TopPages(s.cache.Capacity()) {
		if s.cache.Contains(page) {
			continue
		}
		if s.cache.Free() == 0 {
			victim, ok := s.cache.Victim(cache.LRU{})
			if !ok || s.agg.Freq(victim) >= s.agg.Freq(page) {
				continue
			}
			if err := s.cache.Evict(victim); err != nil {
				panic(err)
			}
			delete(s.warmPages, victim)
			s.emitCache(obs.KindCacheEvict, victim)
		}
		if err := s.cache.Insert(page, s.site.Pages[page].Retrieval); err != nil {
			panic(err)
		}
		s.warmPages[page] = true
		s.warmInserted++
		s.emitCache(obs.KindWarmInsert, page)
	}
}

// emitCache traces one server-cache mutation (always server-side, so
// no client attribution).
func (s *server) emitCache(kind obs.Kind, page int) {
	if s.tr == nil {
		return
	}
	ev := obs.Ev(s.clock.Now(), kind, obs.ServerClient)
	ev.Page = page
	s.tr.Emit(ev)
}

// insertCache caches a demand- or speculation-carried page at the server,
// keeping the warm-attribution set consistent across LRU evictions
// (deleting from a nil warmPages map is a safe no-op when warming is off).
func (s *server) insertCache(page int, retrieval float64) {
	if s.cache.Contains(page) {
		return
	}
	if victim, evicted := s.cache.InsertLRU(page, retrieval); evicted {
		delete(s.warmPages, victim)
		s.emitCache(obs.KindCacheEvict, victim)
	}
	s.emitCache(obs.KindCacheInsert, page)
}
