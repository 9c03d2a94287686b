package fleet

import (
	"fmt"
	"math"

	"prefetch/internal/cache"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/schedsrv"
)

// frequest is one retrieval submitted to a replica, demand or
// speculative. It rides through the scheduler as the opaque Tag and is
// also held in the replica's outstanding ledger so a failure can
// enumerate the transfers it destroys and repair the issuing sessions.
type frequest struct {
	sess     *session
	page     int
	duration float64 // origin service time
	demand   bool
	round    int
	prob     float64 // plan-time candidate probability (speculative only)
	done     bool    // completed (ledger bookkeeping)
}

// replicaTracer stamps every event a replica's machinery emits with the
// replica's 1-based ordinal, so one fleet trace can be rolled up per
// replica. Events already stamped (none today) are left alone.
type replicaTracer struct {
	inner obs.Tracer
	id    int // 0-based replica id
}

func (t replicaTracer) Enabled() bool { return true }

func (t replicaTracer) Emit(ev obs.Event) {
	if ev.Replica == 0 {
		ev.Replica = t.id + 1
	}
	t.inner.Emit(ev)
}

// replica is one server of the fleet: the same scheduler-arbitrated,
// cache-equipped machinery as the multiclient server, plus a failure
// schedule and the bookkeeping to survive being destroyed and rebuilt.
// The aggregate predictor deliberately lives outside the fail/recover
// cycle: it models durable popularity state kept off the serving path.
type replica struct {
	id int
	fl *fleetRun

	sched     *schedsrv.Scheduler
	hitFactor float64
	cache     *cache.Cache // nil ⇒ no server cache
	tr        obs.Tracer   // replica-stamped tracer; nil = disabled

	served    int64
	cacheHits int64

	// Server-side warming, as in multiclient but per replica: the warm
	// set is this replica's aggregate model — the popularity estimate of
	// the clients homed here.
	agg          *predict.Aggregate
	warmEvery    float64
	warmedAt     float64
	warmPages    map[int]bool
	warmInserted int64
	warmHits     int64

	// Outstanding ledger: every accepted transfer, in issue order, so a
	// failure can enumerate what it lost. Compacted as entries complete.
	ledger     []*frequest
	ledgerDone int

	// Failure state.
	up        bool
	failRand  *rng.Source
	downSince float64
	downtime  float64
	fails     int
	recovers  int
	lost      int64

	// Scheduler counters folded across incarnations. folded marks that
	// the current scheduler's counters are already in the accumulators
	// (it failed and nothing replaced it yet).
	accBusy                                      float64
	accSpec, accPreempt, accDropped, accDeferred int64
	folded                                       bool
}

func newReplica(id int, f *fleetRun) (*replica, error) {
	r := &replica{
		id:        id,
		fl:        f,
		hitFactor: f.cfg.Base.ServerHitFactor,
		up:        true,
	}
	if f.tr != nil {
		r.tr = replicaTracer{inner: f.tr, id: id}
	}
	if err := r.buildServer(); err != nil {
		return nil, err
	}
	if agg := newAggregate(f.cfg); agg != nil {
		r.agg = agg
		if f.cfg.Base.WarmServerCache {
			if !(f.cfg.Base.MeanViewing > 0) {
				panic(fmt.Sprintf("fleet: warm cadence %v (need > 0; config not validated?)", f.cfg.Base.MeanViewing))
			}
			r.warmEvery = f.cfg.Base.MeanViewing
			r.warmedAt = math.Inf(-1)
			r.warmPages = map[int]bool{}
		}
	}
	return r, nil
}

// buildServer installs a fresh scheduler and (when configured) a fresh
// empty cache — the state one incarnation of the replica owns.
func (r *replica) buildServer() error {
	scfg := r.fl.cfg.Base.Sched
	scfg.Concurrency = r.fl.cfg.Base.ServerConcurrency
	sched, err := schedsrv.New(r.fl.clock, scfg)
	if err != nil {
		return err
	}
	sched.Tracer = r.tr
	sched.ServiceTime = r.serviceTime
	sched.Done = r.done
	r.sched = sched
	r.cache = nil
	if slots := r.fl.cfg.Base.ServerCacheSlots; slots > 0 {
		c, err := cache.New(slots)
		if err != nil {
			return err
		}
		r.cache = c
	}
	return nil
}

// enqueue submits a request, recording it in the outstanding ledger when
// accepted. False means admission control dropped a speculative request.
func (r *replica) enqueue(fr *frequest) bool {
	ok := r.sched.Submit(schedsrv.Request{
		Client:  fr.sess.id,
		Page:    fr.page,
		Service: fr.duration,
		Demand:  fr.demand,
		Tag:     fr,
	})
	if ok {
		r.ledger = append(r.ledger, fr)
	}
	return ok
}

// promote marks an outstanding speculative transfer demand-critical.
func (r *replica) promote(clientID, page int) bool {
	return r.sched.Promote(clientID, page)
}

// feedback is the congestion snapshot adaptive sessions observe. The
// cumulative counters span incarnations, so a controller watching
// deferral deltas never sees them jump backwards after a recovery.
func (r *replica) feedback(now float64) schedsrv.Feedback {
	fb := r.sched.Snapshot(now)
	if r.folded {
		// Down replica: the current (failed) scheduler's totals are
		// already inside the accumulators — replacing instead of adding
		// avoids counting them twice.
		fb.DroppedTotal = r.accDropped
		fb.DeferredTotal = r.accDeferred
		fb.PreemptionsTotal = r.accPreempt
	} else {
		fb.DroppedTotal += r.accDropped
		fb.DeferredTotal += r.accDeferred
		fb.PreemptionsTotal += r.accPreempt
	}
	return fb
}

// serviceTime and done mirror the multiclient server hooks.
func (r *replica) serviceTime(req *schedsrv.Request) float64 {
	first := req.Attempt() == 1
	if first {
		r.served++
	}
	service := req.Service
	if r.cache != nil && r.cache.Contains(req.Page) {
		r.cache.RecordAccess(req.Page)
		service *= r.hitFactor
		if first {
			r.cacheHits++
			warm := r.warmPages[req.Page]
			if warm {
				r.warmHits++
			}
			if r.tr != nil {
				ev := obs.Ev(r.fl.clock.Now(), obs.KindCacheHit, req.Client)
				ev.Page = req.Page
				if warm {
					ev.Note = "warm"
				}
				r.tr.Emit(ev)
			}
		}
	}
	return service
}

func (r *replica) done(req *schedsrv.Request, service, waited float64) {
	fr := req.Tag.(*frequest)
	fr.done = true
	r.ledgerDone++
	if len(r.ledger) >= 64 && r.ledgerDone*2 >= len(r.ledger) {
		r.compactLedger()
	}
	if r.tr != nil {
		ev := obs.Ev(r.fl.clock.Now(), obs.KindTransferDone, fr.sess.id)
		ev.Round = fr.round
		ev.Page = fr.page
		ev.Demand = fr.demand
		ev.Service = service
		ev.Waited = waited
		r.tr.Emit(ev)
	}
	if r.cache != nil {
		r.insertCache(fr.page, fr.duration)
	}
	r.fl.lastT = r.fl.clock.Now()
	fr.sess.onTransferDone(fr, waited)
}

func (r *replica) compactLedger() {
	live := r.ledger[:0]
	for _, fr := range r.ledger {
		if !fr.done {
			live = append(live, fr)
		}
	}
	for i := len(live); i < len(r.ledger); i++ {
		r.ledger[i] = nil
	}
	r.ledger = live
	r.ledgerDone = 0
}

// maybeWarm runs one warm pass from this replica's aggregate model, as
// in the multiclient server. A no-op while the replica is down.
func (r *replica) maybeWarm(now float64) {
	if r.warmPages == nil || !r.up || now < r.warmedAt+r.warmEvery {
		return
	}
	r.warmedAt = now
	for _, page := range r.agg.TopPages(r.cache.Capacity()) {
		if r.cache.Contains(page) {
			continue
		}
		if r.cache.Free() == 0 {
			victim, ok := r.cache.Victim(cache.LRU{})
			if !ok || r.agg.Freq(victim) >= r.agg.Freq(page) {
				continue
			}
			if err := r.cache.Evict(victim); err != nil {
				panic(err)
			}
			delete(r.warmPages, victim)
			r.emitCache(obs.KindCacheEvict, victim)
		}
		if err := r.cache.Insert(page, r.fl.site.Pages[page].Retrieval); err != nil {
			panic(err)
		}
		r.warmPages[page] = true
		r.warmInserted++
		r.emitCache(obs.KindWarmInsert, page)
	}
}

func (r *replica) emitCache(kind obs.Kind, page int) {
	if r.tr == nil {
		return
	}
	ev := obs.Ev(r.fl.clock.Now(), kind, obs.ServerClient)
	ev.Page = page
	r.tr.Emit(ev)
}

func (r *replica) insertCache(page int, retrieval float64) {
	if r.cache.Contains(page) {
		return
	}
	if victim, evicted := r.cache.InsertLRU(page, retrieval); evicted {
		delete(r.warmPages, victim)
		r.emitCache(obs.KindCacheEvict, victim)
	}
	r.emitCache(obs.KindCacheInsert, page)
}

// foldSched folds the current scheduler's counters into the
// cross-incarnation accumulators.
func (r *replica) foldSched() {
	r.accBusy += r.sched.BusyTime()
	r.accSpec += r.sched.SpecCompleted()
	r.accPreempt += r.sched.Preemptions()
	r.accDropped += r.sched.Dropped()
	r.accDeferred += r.sched.Deferred()
}

// scheduleFailure draws this incarnation's time-to-failure and puts it
// on the clock.
func (r *replica) scheduleFailure(now float64) {
	gap := r.failRand.Exp(1 / r.fl.cfg.FailEvery)
	r.fl.clock.Schedule(now+gap, r.fail)
}

// fail destroys the replica: the scheduler's backlog and in-flight
// transfers are lost, the cache empties, and every issuing session is
// repaired — pending prefetches vanish, blocked demands re-route. The
// aggregate model survives. Churn stops once the workload has finished
// (the check makes the stray post-workload failure draw a no-op, so the
// run drains).
func (r *replica) fail() {
	if r.fl.active == 0 {
		return
	}
	now := r.fl.clock.Now()
	lostNow := r.sched.Fail()
	r.foldSched()
	r.folded = true
	r.up = false
	r.downSince = now
	r.fails++
	r.lost += int64(lostNow)
	r.fl.lost += int64(lostNow)
	r.fl.lastT = now

	// Everything the cache held dies with the machine; warming restarts
	// from the (surviving) aggregate after recovery.
	r.cache = nil
	if r.warmPages != nil {
		r.warmPages = map[int]bool{}
		r.warmedAt = math.Inf(-1)
	}

	outstanding := make([]*frequest, 0, lostNow)
	for _, fr := range r.ledger {
		if !fr.done {
			outstanding = append(outstanding, fr)
		}
	}
	if len(outstanding) != lostNow {
		panic(fmt.Sprintf("fleet: replica %d ledger has %d outstanding, scheduler lost %d", r.id, len(outstanding), lostNow))
	}
	r.ledger = nil
	r.ledgerDone = 0

	if r.fl.tr != nil {
		ev := obs.Ev(now, obs.KindReplicaFail, obs.ServerClient)
		ev.Replica = r.id + 1
		ev.Queued = lostNow
		r.fl.tr.Emit(ev)
	}
	for _, fr := range outstanding {
		r.fl.handleLost(fr, r)
	}
	r.fl.clock.After(r.fl.cfg.RecoverAfter, r.recover)
}

// recover rebuilds the replica with a fresh scheduler and a cold cache,
// drains any demands parked during a total outage, and draws the next
// failure.
func (r *replica) recover() {
	now := r.fl.clock.Now()
	r.downtime += now - r.downSince
	r.recovers++
	if err := r.buildServer(); err != nil {
		// The same configuration built the first incarnation; a failure
		// here is a simulator bug.
		panic(err)
	}
	r.folded = false
	r.up = true
	if r.fl.active == 0 {
		// Workload already over: close the downtime window but leave
		// Elapsed and the failure schedule alone.
		return
	}
	r.fl.lastT = now
	if r.fl.tr != nil {
		ev := obs.Ev(now, obs.KindReplicaRecover, obs.ServerClient)
		ev.Replica = r.id + 1
		r.fl.tr.Emit(ev)
	}
	r.fl.drainParked()
	r.scheduleFailure(now)
}

// result snapshots the replica's totals at the end of the run.
func (r *replica) result(elapsed float64) ReplicaResult {
	if !r.folded {
		r.foldSched()
		r.folded = true
	}
	down := r.downtime
	if !r.up && r.downSince < elapsed {
		down += elapsed - r.downSince
	}
	return ReplicaResult{
		Replica:          r.id,
		Requests:         r.served,
		CacheHits:        r.cacheHits,
		Busy:             r.accBusy,
		SpecCompleted:    r.accSpec,
		Preemptions:      r.accPreempt,
		PrefetchDropped:  r.accDropped,
		PrefetchDeferred: r.accDeferred,
		WarmInserted:     r.warmInserted,
		WarmHits:         r.warmHits,
		Failures:         r.fails,
		Recoveries:       r.recovers,
		Lost:             r.lost,
		Downtime:         down,
	}
}
