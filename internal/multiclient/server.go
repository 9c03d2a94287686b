package multiclient

import (
	"fmt"
	"math"

	"prefetch/internal/cache"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/schedsrv"
)

// request is one retrieval submitted to a server, demand or speculative,
// tagged with the client round that issued it so stale prefetch
// completions can be recognised. It rides through the scheduling
// subsystem as the opaque Tag of a schedsrv.Request — as a pooled pointer,
// so tagging does not box a fresh copy per submission. The node is
// recycled when the transfer's lifecycle ends: its completion callback
// is done, admission refused it, or a failure lost it and the client has
// been repaired.
type request struct {
	client   *client
	page     int
	duration float64 // origin service time (before any server-cache hit)
	demand   bool
	round    int
	prob     float64 // plan-time candidate probability (speculative only)
}

// stampTracer stamps every event a server's machinery emits with the
// server's 1-based replica ordinal, so one replicated trace can be rolled
// up per replica. Installed only when a router spreads the run.
type stampTracer struct {
	inner obs.Tracer
	id    int // 0-based server id
}

func (t stampTracer) Enabled() bool { return true }

func (t stampTracer) Emit(ev obs.Event) {
	if ev.Replica == 0 {
		ev.Replica = t.id + 1
	}
	t.inner.Emit(ev)
}

// server is one contended bottleneck clients share. It owns the storage
// side — the optional server-side cache that shortens the service of
// pages it holds — and delegates every queueing, ordering, shaping and
// admission decision to a schedsrv.Scheduler, whose discipline is chosen
// by Config.Sched. The seed behaviour (one FIFO queue over `concurrency`
// slots, demand and prefetch traffic indistinguishable) is
// schedsrv.KindFIFO and replays the seed's timelines bit for bit.
//
// A server can fail: the scheduler's backlog, every in-flight transfer
// and the cache are lost, and after the repair time the scheduler
// recovers in place and the server returns with a cold cache. The
// scheduler is the only record of what a failure lost and of the
// counters across failures. The aggregate model survives — it models
// durable popularity state kept off the serving path.
type server struct {
	id  int
	eng *engine

	sched *schedsrv.Scheduler
	cache *cache.Cache // nil ⇒ no server cache (or down)
	tr    obs.Tracer   // nil = tracing disabled; replica-stamped under a router

	served    int64
	cacheHits int64

	// Server-side prefetching (Config.WarmServerCache): the warmer
	// pre-admits the top-probability pages of agg — the shared model of
	// the clients homed here — into the cache on a per-viewing-time
	// cadence, so population-hot pages are fast before any client's
	// traffic demands them. agg is nil unless the shared predictor runs.
	agg          *predict.Aggregate
	warmEvery    float64      // minimum simulated time between warm passes
	warmedAt     float64      // time of the last warm pass
	warmPages    map[int]bool // resident pages placed by the warmer; nil = warming off
	warmInserted int64
	warmHits     int64

	// Failure state; the server is down while its scheduler is failed.
	failRand  *rng.Source
	downSince float64
	downtime  float64
	fails     int
	recovers  int
	lost      int64
}

func newServer(id int, e *engine) (*server, error) {
	s := &server{id: id, eng: e, tr: e.tr}
	if e.tr != nil && e.router != nil {
		s.tr = stampTracer{inner: e.tr, id: id}
	}
	scfg := e.cfg.Sched
	scfg.Concurrency = e.cfg.ServerConcurrency
	sched, err := schedsrv.New(&e.clock, scfg)
	if err != nil {
		return nil, err
	}
	sched.Tracer = s.tr
	sched.ServiceTime = s.serviceTime
	sched.Done = s.done
	s.sched = sched
	if err := s.buildCache(); err != nil {
		return nil, err
	}
	if e.cfg.Predict.Kind == predict.KindShared {
		s.agg = predict.NewAggregate()
		if e.cfg.WarmServerCache {
			s.enableWarming()
		}
	}
	return s, nil
}

// buildCache installs a fresh empty cache when one is configured — the
// state a failure destroys besides the scheduler's backlog.
func (s *server) buildCache() error {
	if n := s.eng.cfg.ServerCacheSlots; n > 0 {
		c, err := cache.New(n)
		if err != nil {
			return err
		}
		s.cache = c
	}
	return nil
}

// enableWarming arms the server-side prefetcher with a cadence of one
// mean viewing time. Config.Validate guarantees the cache and the shared
// predictor exist when warming is configured.
func (s *server) enableWarming() {
	// maybeWarm fires whenever now >= warmedAt+warmEvery, so a zero (or
	// NaN) cadence would degenerate into warming on every event (or
	// never). Config.Validate rejects such MeanViewing values; a config
	// path that bypasses it is a simulator bug.
	if mv := s.eng.cfg.MeanViewing; !(mv > 0) {
		panic(fmt.Sprintf("multiclient: warm cadence %v (need > 0; config not validated?)", mv))
	}
	s.warmEvery = s.eng.cfg.MeanViewing
	s.warmedAt = math.Inf(-1)
	s.warmPages = map[int]bool{}
}

// enqueue submits a request to the scheduling subsystem. It reports false
// when admission control dropped a speculative request: the transfer will
// never happen and no completion callback will fire. The tag node is
// recycled immediately on a drop (the scheduler has already detached it)
// and otherwise lives until done (or fail) releases it.
func (s *server) enqueue(r request) bool {
	rq := s.eng.reqPool.Get()
	*rq = r
	if !s.sched.Submit(schedsrv.Request{
		Client:  r.client.id,
		Page:    r.page,
		Service: r.duration,
		Demand:  r.demand,
		Tag:     rq,
	}) {
		s.eng.recycle(rq)
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

// serviceTime is the scheduler's service-start hook: a server-cache hit
// means the page is already at the server, so only the hit-factor
// fraction of the origin time is spent. Preemption restarts re-resolve
// the cache (the second attempt's timing is real) but count as neither a
// new request nor a new hit — served and cacheHits count logical requests.
func (s *server) serviceTime(r *schedsrv.Request) float64 {
	first := r.Attempt() == 1
	if first {
		s.served++
	}
	service := r.Service
	if s.cache != nil && s.cache.Contains(r.Page) {
		s.cache.RecordAccess(r.Page)
		service *= s.eng.cfg.ServerHitFactor
		if first {
			s.cacheHits++
			warm := s.warmPages[r.Page]
			if warm {
				s.warmHits++
			}
			if s.tr != nil {
				ev := obs.Ev(s.eng.clock.Now(), obs.KindCacheHit, r.Client)
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
	now := s.eng.clock.Now()
	if s.tr != nil {
		ev := obs.Ev(now, obs.KindTransferDone, req.client.id)
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
	s.eng.lastT = now
	req.client.onTransferDone(*req, waited)
	s.eng.recycle(req)
}

// maybeWarm runs one warm pass if warming is armed, the server is up and
// the cadence has elapsed: the aggregate model's current top pages (up to
// the cache capacity) are pre-admitted, evicting an LRU victim only when
// the victim is strictly colder in the pooled popularity estimate — so
// warming converges on the hot set instead of thrashing against
// demand-warmed entries.
func (s *server) maybeWarm(now float64) {
	if s.warmPages == nil || s.sched.Failed() || now < s.warmedAt+s.warmEvery {
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
		if err := s.cache.Insert(page, s.eng.site.Pages[page].Retrieval); err != nil {
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
	ev := obs.Ev(s.eng.clock.Now(), kind, obs.ServerClient)
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

// scheduleFailure draws the time to the server's next failure and puts
// it on the clock.
func (s *server) scheduleFailure(now float64) {
	gap := s.failRand.Exp(1 / s.eng.failEvery)
	s.eng.clock.Schedule(now+gap, s.fail)
}

// fail destroys the server: the scheduler's backlog and in-flight
// transfers are lost, the cache empties, and every issuing client is
// repaired in issue order — pending prefetches vanish, blocked demands
// re-route — before its request node is recycled. The aggregate model
// survives. Churn stops once the workload has finished (the check makes
// the stray post-workload failure draw a no-op, so the run drains).
func (s *server) fail() {
	e := s.eng
	if e.active == 0 {
		return
	}
	now := e.clock.Now()
	lost := s.sched.Fail()
	s.downSince = now
	s.fails++
	s.lost += int64(len(lost))
	e.lastT = now

	// Everything the cache held dies with the machine; warming restarts
	// from the (surviving) aggregate after recovery.
	s.cache = nil
	if s.warmPages != nil {
		s.warmPages = map[int]bool{}
		s.warmedAt = math.Inf(-1)
	}

	if e.tr != nil {
		ev := obs.Ev(now, obs.KindReplicaFail, obs.ServerClient)
		ev.Replica = s.id + 1
		ev.Queued = len(lost)
		e.tr.Emit(ev)
	}
	for _, r := range lost {
		rq := r.Tag.(*request)
		e.handleLost(rq, s)
		e.recycle(rq)
	}
	e.clock.After(e.recoverAfter, s.recover)
}

// recover reopens the scheduler and installs a cold cache, drains any
// demands parked during a total outage, and draws the next failure.
func (s *server) recover() {
	e := s.eng
	now := e.clock.Now()
	s.downtime += now - s.downSince
	s.recovers++
	s.sched.Recover()
	if err := s.buildCache(); err != nil {
		// The same configuration built the first cache; a failure here
		// is a simulator bug.
		panic(err)
	}
	if e.active == 0 {
		// Workload already over: close the downtime window but leave
		// Elapsed and the failure schedule alone.
		return
	}
	e.lastT = now
	if e.tr != nil {
		ev := obs.Ev(now, obs.KindReplicaRecover, obs.ServerClient)
		ev.Replica = s.id + 1
		e.tr.Emit(ev)
	}
	e.drainParked()
	s.scheduleFailure(now)
}

// result snapshots the server's totals at the end of the run.
func (s *server) result(elapsed float64) ReplicaResult {
	down := s.downtime
	if s.sched.Failed() && s.downSince < elapsed {
		down += elapsed - s.downSince
	}
	return ReplicaResult{
		Replica:          s.id,
		Requests:         s.served,
		CacheHits:        s.cacheHits,
		Busy:             s.sched.BusyTime(),
		SpecCompleted:    s.sched.SpecCompleted(),
		Preemptions:      s.sched.Preemptions(),
		PrefetchDropped:  s.sched.Dropped(),
		PrefetchDeferred: s.sched.Deferred(),
		WarmInserted:     s.warmInserted,
		WarmHits:         s.warmHits,
		Failures:         s.fails,
		Recoveries:       s.recovers,
		Lost:             s.lost,
		Downtime:         down,
	}
}
