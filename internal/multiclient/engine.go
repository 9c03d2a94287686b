package multiclient

import (
	"fmt"

	"prefetch/internal/core"
	"prefetch/internal/eventq"
	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/webgraph"
)

// ReplicaState is one server's routing-time state: whether it is up and
// its backlog, the requests its scheduler holds queued plus those in
// flight.
type ReplicaState struct {
	ID   int
	Up   bool
	Load int
}

// Router places one request on a server of a replicated run.
// Implementations must be deterministic pure functions of their own state
// and the arguments — no wall clock, no global RNG — so runs replay bit
// for bit.
type Router interface {
	Name() string
	// Route picks a live server for the client's request, or reports
	// false when every server is down. states lists all servers in id
	// order, up or not.
	Route(client, page int, states []ReplicaState) (int, bool)
	// Home returns the server a client is anchored to when every server
	// is up — the one whose shared predictor observes the client's
	// accesses, whose cache the client's round-start warming targets and
	// whose congestion feedback the client's controller reads.
	Home(client, replicas int) int
}

// ReplicaResult is one server's view of a replicated run. Scheduler
// counters run across failures: a failure empties the server's
// scheduler, which then recovers in place and keeps counting.
type ReplicaResult struct {
	Replica   int // server id, 0-based
	Requests  int64
	CacheHits int64
	Busy      float64 // slot-seconds of service across incarnations

	SpecCompleted    int64
	Preemptions      int64
	PrefetchDropped  int64
	PrefetchDeferred int64
	WarmInserted     int64
	WarmHits         int64

	Failures   int
	Recoveries int
	Lost       int64   // outstanding transfers lost to this server's failures
	Downtime   float64 // simulated time spent down
}

// failLabel names server i's derived failure stream.
func failLabel(i int) string { return fmt.Sprintf("replica/%d/fail", i) }

// parkedDemand is a demand fetch with nowhere to go: every server was
// down when it (re-)routed. Parked demands drain in park order on the
// next recovery.
type parkedDemand struct {
	client *client
	page   int
	from   int // server ordinal (1-based) the demand was displaced from, 0 if none
}

// engine is one simulation in flight: the shared clock, the servers, the
// clients, the optional router and failure regime, and the per-plan
// scratch the single-threaded event loop reuses. Run drives it with one
// server, no router and no failures; RunReplicated with any number.
type engine struct {
	cfg     *Config
	clock   netsim.Clock
	tr      obs.Tracer // normalised: nil = tracing disabled
	site    *webgraph.Site
	servers []*server
	clients []*client

	// router is nil for a single server: every transfer then goes to
	// servers[0] without a routing decision.
	router Router
	states []ReplicaState // routing scratch, one entry per server

	// Failure injection (failEvery > 0): mean time to failure and the
	// fixed repair time.
	failEvery, recoverAfter float64

	active   int // clients still browsing; churn stops at 0
	parked   []parkedDemand
	reroutes int64

	// lastT is the time of the last meaningful event. The clock itself
	// can run past it under failure injection: a failure check scheduled
	// beyond the workload's end fires as a no-op, and counting it would
	// inflate Elapsed.
	lastT float64

	// reqPool recycles the tag records riding through the schedulers, and
	// solver is the one branch-and-bound scratch space every client's
	// plan() shares — the event loop runs clients one at a time and each
	// plan is consumed before the next Solve, so a single solver is safe.
	// scratch is the live walkers' step scratch, shared the same way: a
	// step's candidates (id-ordered positives, ranked after the filter)
	// are planned before the next step. It is nil when Phase A scripts
	// every client.
	reqPool eventq.FreeList[request]
	solver  *core.Solver
	planBuf []core.Item
	scratch *stepScratch

	predName string // the prediction source's reported name
}

// RunReplicated plays the simulation over replicas servers behind router,
// with failure injection armed when failEvery > 0 (each server's time
// between recovery and its next failure is exponential with that mean,
// drawn from the server's own derived stream; recoverAfter is the fixed
// repair time). The caller validates the failure regime. With one server,
// a nil router and no failures it is exactly Run.
//
// The Result's server-side counters are summed over the servers, and its
// PerReplica holds each server's own totals.
func RunReplicated(cfg Config, replicas int, router Router, failEvery, recoverAfter float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if replicas < 1 || (replicas > 1 && router == nil) {
		return Result{}, fmt.Errorf("%w: %d servers need a router", ErrBadConfig, replicas)
	}
	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		return Result{}, err
	}
	e := &engine{
		cfg:          &cfg,
		tr:           obs.Active(cfg.Tracer),
		site:         site,
		router:       router,
		failEvery:    failEvery,
		recoverAfter: recoverAfter,
		active:       cfg.Clients,
		solver:       core.NewSolver(),
	}
	e.servers = make([]*server, replicas)
	for i := range e.servers {
		if e.servers[i], err = newServer(i, e); err != nil {
			return Result{}, err
		}
	}
	// Probing a learned source once names it for the result and surfaces
	// construction errors before any client exists; the oracle has
	// neither to report.
	e.predName = string(predict.KindOracle)
	if !oracleSource(&cfg) {
		probe, err := predict.New(cfg.Predict, 0, nil, e.servers[0].agg)
		if err != nil {
			return Result{}, err
		}
		e.predName = probe.Name()
	}
	// Phase A: shard workers precompute every client's workload script in
	// parallel. The shared predictor must train in arrival order, so its
	// clients step live walkers instead.
	var scripts *Scripts
	if Scriptable(cfg) {
		if scripts, err = GenerateScripts(cfg, site); err != nil {
			return Result{}, err
		}
	} else {
		e.scratch = newStepScratch(len(site.Pages), truthTable(&cfg, site))
	}
	e.clients = make([]*client, cfg.Clients)
	for i := range e.clients {
		var sc *Script
		if scripts != nil {
			sc = &scripts.PerClient[i]
		}
		if e.clients[i], err = newClient(i, e, scripts, sc); err != nil {
			return Result{}, err
		}
	}
	e.run()
	return e.result()
}

// run plays the event loop: all clients start browsing at time zero,
// servers fail and recover on their derived schedules, and the loop
// drains every scheduled transfer, including stale prefetches left over
// after the last round.
func (e *engine) run() {
	for _, c := range e.clients {
		c := c
		e.clock.Schedule(0, func() { c.startRound(0) })
	}
	// Failure schedules go on the clock after the client starts so the
	// workload's t=0 events run before any t=0 failure draw.
	if e.failEvery > 0 {
		for _, s := range e.servers {
			s.failRand = rng.Derive(e.cfg.Seed, failLabel(s.id))
			s.scheduleFailure(0)
		}
	}
	e.clock.Run()

	// Wasted-prefetch resolution: only after the event loop drains is
	// it known which completed speculative transfers never served a
	// demand. Emitted per client in id order, then issue order, stamped
	// at end time — deterministic, like everything on the clock.
	if e.tr != nil {
		end := e.clock.Now()
		for _, c := range e.clients {
			for _, sp := range c.specLog {
				if sp.used {
					continue
				}
				ev := obs.Ev(end, obs.KindSpecWasted, c.id)
				ev.Page = sp.page
				ev.Round = sp.round
				ev.Prob = sp.prob
				e.tr.Emit(ev)
			}
		}
	}
	if e.failEvery == 0 {
		// No failure events on the clock, so the drain time is the last
		// meaningful event by construction.
		e.lastT = e.clock.Now()
	}
}

// result assembles the drained run: per-client results in id order,
// per-server totals in id order, and their sums.
func (e *engine) result() (Result, error) {
	cfg := e.cfg
	res := Result{
		Clients:     cfg.Clients,
		Replicas:    len(e.servers),
		Concurrency: cfg.ServerConcurrency,
		Discipline:  e.servers[0].sched.Discipline(),
		Controller:  e.clients[0].ctrl.Name(),
		Predictor:   e.predName,
		PerClient:   make([]ClientResult, cfg.Clients),
		PerReplica:  make([]ReplicaResult, len(e.servers)),
		Elapsed:     e.lastT,
		ReRoutes:    e.reroutes,
	}
	if e.router != nil {
		res.Router = e.router.Name()
	}
	for i, s := range e.servers {
		rr := s.result(e.lastT)
		res.PerReplica[i] = rr
		res.ServerBusy += rr.Busy
		res.ServerRequests += rr.Requests
		res.ServerCacheHits += rr.CacheHits
		res.SpecCompleted += rr.SpecCompleted
		res.Preemptions += rr.Preemptions
		res.PrefetchDropped += rr.PrefetchDropped
		res.PrefetchDeferred += rr.PrefetchDeferred
		res.WarmInserted += rr.WarmInserted
		res.WarmHits += rr.WarmHits
		res.Failures += int64(rr.Failures)
		res.Recoveries += int64(rr.Recoveries)
		res.LostTransfers += rr.Lost
		res.Downtime += rr.Downtime
	}
	for i, c := range e.clients {
		if c.access.N() != int64(cfg.Rounds) {
			return Result{}, fmt.Errorf("multiclient: client %d finished %d/%d rounds", i, c.access.N(), cfg.Rounds)
		}
		res.PerClient[i] = ClientResult{
			Client:            i,
			Access:            c.access,
			DemandAccess:      c.demandAccess,
			QueueWait:         c.queueWait,
			Lambda:            c.lambdaTrace,
			L1Error:           c.l1Trace,
			PrefetchIssued:    c.prefetchIssued,
			PrefetchDropped:   c.prefetchDropped,
			PrefetchCompleted: c.prefetchCompleted,
			PrefetchUseful:    c.prefetchUseful,
			DemandFetches:     c.demandFetches,
			ZeroWaitRounds:    c.zeroWaitRounds,
		}
		res.Access.Merge(&c.access)
		res.DemandAccess.Merge(&c.demandAccess)
		res.QueueWait.Merge(&c.queueWait)
		res.Lambda.Merge(&c.lambdaTrace)
		res.L1Error.Merge(&c.l1Trace)
		res.PrefetchCompleted += c.prefetchCompleted
		res.PrefetchUseful += c.prefetchUseful
	}
	return res, nil
}

// route places a new transfer of page for client c and traces the
// decision. It reports false when every server is down. Only called when
// the run has a router.
func (e *engine) route(c *client, page int, demand bool) (*server, bool) {
	s, ok := e.pick(c.id, page)
	if !ok {
		return nil, false
	}
	if e.tr != nil {
		ev := obs.Ev(e.clock.Now(), obs.KindRoute, c.id)
		ev.Round = c.round
		ev.Page = page
		ev.Demand = demand
		ev.Replica = s.id + 1
		e.tr.Emit(ev)
	}
	return s, true
}

// pick runs the routing decision without tracing. It reads each
// server's backlog from two counters the scheduler keeps, so routing a
// request neither computes the utilisation estimate nor emits a
// queue_depth sample.
func (e *engine) pick(client, page int) (*server, bool) {
	e.states = e.states[:0]
	for _, s := range e.servers {
		e.states = append(e.states, ReplicaState{ID: s.id, Up: !s.sched.Failed(), Load: s.sched.Queued() + s.sched.InFlight()})
	}
	id, ok := e.router.Route(client, page, e.states)
	if !ok {
		return nil, false
	}
	return e.servers[id], true
}

// rerouteDemand re-places a demand fetch displaced from a failed server
// (or parked during a total outage). The reroute event doubles as the
// new routing decision, so no separate route event is emitted.
func (e *engine) rerouteDemand(c *client, page, fromOrdinal int) {
	s, ok := e.pick(c.id, page)
	if !ok {
		e.parked = append(e.parked, parkedDemand{client: c, page: page, from: fromOrdinal})
		return
	}
	if e.tr != nil {
		ev := obs.Ev(e.clock.Now(), obs.KindReRoute, c.id)
		ev.Round = c.round
		ev.Page = page
		ev.Replica = s.id + 1
		if fromOrdinal > 0 {
			ev.Note = fmt.Sprintf("from replica %d", fromOrdinal)
		}
		e.tr.Emit(ev)
	}
	s.enqueue(c.demandRequest(page))
}

// handleLost repairs one client's state after its outstanding transfer
// died with a server. A lost speculative transfer just stops being
// pending; a lost transfer the client was blocked on — a demand fetch or
// a promoted prefetch — re-routes as a fresh demand.
func (e *engine) handleLost(rq *request, from *server) {
	c := rq.client
	if c.pending[rq.page] == int32(from.id+1) {
		c.pending[rq.page] = 0
	}
	if c.waitingFor == rq.page {
		e.reroutes++
		e.rerouteDemand(c, rq.page, from.id+1)
	}
}

// recycle returns a request node whose transfer has ended to the pool,
// dropping its client pointer first.
func (e *engine) recycle(rq *request) {
	*rq = request{}
	e.reqPool.Put(rq)
}

// drainParked re-routes demands parked during a total outage, in park
// order. Called on every recovery; a pick can only fail again if the
// recovering server already failed at the same instant, in which case
// the demand stays parked for the next recovery.
func (e *engine) drainParked() {
	if len(e.parked) == 0 {
		return
	}
	pending := e.parked
	e.parked = nil
	for _, p := range pending {
		e.rerouteDemand(p.client, p.page, p.from)
	}
}
