package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"prefetch/internal/adaptive"
	"prefetch/internal/cache"
	"prefetch/internal/core"
	"prefetch/internal/eventq"
	"prefetch/internal/fleet"
	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/schedsrv"
	"prefetch/internal/webgraph"
)

// layerPass holds what the traced pass recorded and the state the layer
// replays share. Replay timings are isolation costs: each layer's public
// API fed the recorded inputs on its own, one call timed at a time.
type layerPass struct {
	sp      *Spec
	site    *webgraph.Site
	scripts *multiclient.Scripts // nil on the inline (unscripted) path
	rec     *recorder
	out     outcome // the traced run's result
	wall    float64 // traced run's wall seconds, re-encoding included

	// inline holds, per opNext index, the ranked candidates the predict
	// replay produced — the only candidate source on the inline path.
	inline [][]core.Item

	overhead time.Duration // cost of the timer itself, subtracted per sample
}

// tracedPass generates the site and (when scriptable) the Phase-A scripts,
// then runs the workload once under the recorder.
func tracedPass(sp *Spec) (*layerPass, error) {
	cfg := sp.Base
	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		return nil, err
	}
	p := &layerPass{sp: sp, site: site, overhead: timerOverhead()}
	if multiclient.Scriptable(cfg) {
		if p.scripts, err = multiclient.GenerateScripts(cfg, site); err != nil {
			return nil, err
		}
	}
	// Snapshot is a real call in the untraced run only for the fleet
	// (every round reads the home replica's feedback), for runs that
	// trace anyway, and for non-static controllers; a static controller
	// with tracing off skips it.
	static := cfg.Adaptive.Kind == "" || cfg.Adaptive.Kind == adaptive.KindStatic
	p.rec = newRecorder(cfg.Clients, sp.Fleet != nil || sp.ExportTrace || !static)
	t0 := time.Now()
	p.out, err = sp.run(p.rec)
	if err == nil {
		err = p.rec.finish()
	}
	p.wall = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	return p, p.out.check(cfg.Rounds)
}

// measureLayers times the set-up layers, runs the traced pass and every
// layer replay, and reports the layer metrics. runP50 is the median wall
// seconds of sp's untraced timed runs; each *.est_share is calls × p50 ÷
// runP50, an estimate of the layer's share of one run.
func measureLayers(sp *Spec, runP50 float64, set func(string, float64)) error {
	cfg := sp.Base
	runNs := runP50 * 1e9
	share := func(ns float64) float64 {
		if runNs <= 0 {
			return 0
		}
		return ns / runNs
	}

	var genMs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site); err != nil {
			return err
		}
		genMs = append(genMs, ms(time.Since(t0)))
	}
	generate := median(genMs)
	set("webgraph.generate_ms", generate)

	p, err := tracedPass(sp)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}

	var phaseA, speedup float64
	if p.scripts != nil {
		if phaseA, err = timeScripts(cfg, p.site, 3); err != nil {
			return err
		}
		if speedup, err = shardSpeedup(cfg, p.site); err != nil {
			return err
		}
	}
	set("multiclient.phase_a_ms", phaseA)
	set("multiclient.phase_b_ms", runP50*1e3-phaseA-generate)
	set("multiclient.phase_a_share", share(phaseA*1e6))
	set("multiclient.phase_a_shard_speedup", speedup)
	var issued, useful, completed int64
	for _, c := range p.out.perClient {
		issued += c.PrefetchIssued
		useful += c.PrefetchUseful
		completed += c.PrefetchCompleted
	}
	set("multiclient.rounds", float64(p.out.rounds))
	set("multiclient.spec_issued", float64(issued))
	set("multiclient.spec_useful_ratio", ratio(float64(useful), float64(completed)))

	pr, err := p.replayPredict()
	if err != nil {
		return fmt.Errorf("predict replay: %w", err)
	}
	nextP := pcts(pr.nextNs, 0.5, 0.99)
	observeP50 := pcts(pr.observeNs, 0.5)[0]
	set("predict.next_calls", float64(len(pr.nextNs)))
	set("predict.observe_ns_p50", observeP50)
	set("predict.next_ns_p50", nextP[0])
	set("predict.next_ns_p99", nextP[1])
	set("predict.allocs_per_call", ratio(float64(pr.mallocs), float64(len(pr.nextNs)+len(pr.observeNs))))
	set("predict.cands_mean", ratio(float64(pr.cands), float64(len(pr.nextNs))))
	set("predict.est_share", share(float64(len(pr.nextNs))*nextP[0]+float64(len(pr.observeNs))*observeP50))

	nodes, solveNs, err := p.replayCore()
	if err != nil {
		return fmt.Errorf("core replay: %w", err)
	}
	solveP := pcts(solveNs, 0.5, 0.99)
	set("core.solves", float64(len(solveNs)))
	set("core.solve_ns_p50", solveP[0])
	set("core.solve_ns_p99", solveP[1])
	set("core.nodes_per_solve", ratio(float64(nodes), float64(len(solveNs))))
	set("core.est_share", share(float64(len(solveNs))*solveP[0]))

	lambdaNs, err := p.replayAdaptive()
	if err != nil {
		return fmt.Errorf("adaptive replay: %w", err)
	}
	set("adaptive.updates", float64(len(lambdaNs)))
	set("adaptive.lambda_ns_p50", pcts(lambdaNs, 0.5)[0])

	sr, err := p.replaySched()
	if err != nil {
		return fmt.Errorf("schedsrv replay: %w", err)
	}
	rec := p.rec
	enq := rec.counts[obs.KindEnqueue]
	submitP50 := pcts(sr.submitNs, 0.5)[0]
	completeP := pcts(sr.completeNs, 0.5, 0.99)
	snapshotP50 := pcts(sr.snapshotNs, 0.5)[0]
	set("schedsrv.enqueues", float64(enq))
	set("schedsrv.preempts", float64(rec.counts[obs.KindPreempt]))
	set("schedsrv.promotes", float64(rec.counts[obs.KindPromote]))
	set("schedsrv.inflight_max", float64(rec.inflightMax))
	set("schedsrv.queued_mean", ratio(float64(rec.queuedSum), float64(enq)))
	set("schedsrv.preempt_waste_frac", ratio(rec.preemptLost, rec.doneService+rec.preemptLost))
	set("schedsrv.submit_ns_p50", submitP50)
	set("schedsrv.complete_ns_p50", completeP[0])
	set("schedsrv.complete_ns_p99", completeP[1])
	set("schedsrv.snapshot_ns_p50", snapshotP50)
	set("schedsrv.est_share", share(float64(len(sr.submitNs))*submitP50+
		float64(len(sr.completeNs))*completeP[0]+float64(len(sr.snapshotNs))*snapshotP50))

	pushNs, popNs := p.timeQueue(sr.clock.log)
	set("eventq.ops", float64(len(sr.clock.log)))
	set("eventq.depth_max", float64(sr.clock.maxDepth))
	set("eventq.push_ns_p50", pcts(pushNs, 0.5)[0])
	set("eventq.pop_ns_p50", pcts(popNs, 0.5)[0])

	containsNs, insertNs, err := p.replayCache()
	if err != nil {
		return fmt.Errorf("cache replay: %w", err)
	}
	containsP50 := pcts(containsNs, 0.5)[0]
	insertP50 := pcts(insertNs, 0.5)[0]
	set("cache.probes", float64(len(containsNs)))
	set("cache.contains_ns_p50", containsP50)
	set("cache.insert_ns_p50", insertP50)
	set("cache.server_inserts", float64(rec.counts[obs.KindCacheInsert]+rec.counts[obs.KindWarmInsert]))
	set("cache.server_evicts", float64(rec.counts[obs.KindCacheEvict]))
	set("cache.server_hit_ratio", p.out.hitRate)
	set("cache.est_share", share(float64(len(containsNs))*containsP50+float64(len(insertNs))*insertP50))

	events := float64(rec.events())
	encodeNs := float64(rec.encode.Nanoseconds())
	set("obs.events", events)
	set("obs.encode_ns_per_event", ratio(encodeNs, events))
	set("obs.bytes_per_event", ratio(float64(rec.bytes), events))
	set("obs.est_share", share(encodeNs))
	set("obs.trace_overhead", share(p.wall*1e9))

	set("fleet.routes", float64(rec.counts[obs.KindRoute]))
	set("fleet.reroutes", float64(rec.counts[obs.KindReRoute]))
	set("fleet.lost", float64(rec.failLost))
	return nil
}

// timeScripts returns the median wall milliseconds of n Phase-A runs.
func timeScripts(cfg multiclient.Config, site *webgraph.Site, n int) (float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := multiclient.GenerateScripts(cfg, site); err != nil {
			return 0, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return median(out), nil
}

// shardSpeedup measures Phase A with one shard against one shard per CPU,
// both at GOMAXPROCS = nproc, and restores GOMAXPROCS afterwards. After
// one untimed run at the new GOMAXPROCS the two settings alternate, three
// runs each, and the ratio of their medians is returned.
func shardSpeedup(cfg multiclient.Config, site *webgraph.Site) (float64, error) {
	nproc := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc))
	one, all := cfg, cfg
	one.Shards, all.Shards = 1, nproc
	if _, err := multiclient.GenerateScripts(all, site); err != nil {
		return 0, err
	}
	var t1, tn []float64
	for i := 0; i < 3; i++ {
		a, err := timeScripts(one, site, 1)
		if err != nil {
			return 0, err
		}
		b, err := timeScripts(all, site, 1)
		if err != nil {
			return 0, err
		}
		t1, tn = append(t1, a), append(tn, b)
	}
	return ratio(median(t1), median(tn)), nil
}

// predictReplay is the predictor replay's raw measurements.
type predictReplay struct {
	nextNs, observeNs []float64
	mallocs           int64 // heap allocations across every timed call
	cands             int64 // Σ predicted candidates over Next calls
}

// replayPredict feeds the traced predict_next/predict_observe stream, in
// trace order, into fresh sources from predict.New. For per-client models
// that is each client's script stream; for the shared predictor it is the
// exact observe/next interleaving the aggregate saw. The oracle is a table
// lookup, not a predictor, and is not replayed.
func (p *layerPass) replayPredict() (predictReplay, error) {
	var pr predictReplay
	cfg := p.sp.Base
	if cfg.Predict.Kind == "" || cfg.Predict.Kind == predict.KindOracle {
		return pr, nil
	}
	home := func(int) int { return 0 }
	var aggs []*predict.Aggregate
	if cfg.Predict.Kind == predict.KindShared {
		if p.sp.Fleet != nil {
			router, err := fleet.NewRouter(p.sp.Fleet.Router, p.sp.Fleet.Replicas)
			if err != nil {
				return pr, err
			}
			home = func(c int) int { return router.Home(c, p.sp.Fleet.Replicas) }
		}
		aggs = make([]*predict.Aggregate, p.sp.replicas())
		for i := range aggs {
			aggs[i] = predict.NewAggregate()
		}
	}
	// Each source starts with its client's start page observed, as the
	// simulator seeds it; the start page is what round 1 planned from.
	start := make([]int, cfg.Clients)
	for _, op := range p.rec.client {
		if op.kind == opNext && op.round == 1 {
			start[op.client] = int(op.page)
		}
	}
	srcs := make([]predict.Source, cfg.Clients)
	for c := range srcs {
		var agg *predict.Aggregate
		if aggs != nil {
			agg = aggs[home(c)]
		}
		src, err := predict.New(cfg.Predict, c, nil, agg)
		if err != nil {
			return pr, err
		}
		src.Observe(start[c])
		srcs[c] = src
	}
	var dists []map[int]float64
	if p.scripts == nil {
		dists = make([]map[int]float64, len(p.rec.client))
	}
	n := p.rec.counts[obs.KindPredictNext]
	pr.nextNs = make([]float64, 0, n)
	pr.observeNs = make([]float64, 0, p.rec.counts[obs.KindPredictObserve])

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, op := range p.rec.client {
		switch op.kind {
		case opNext:
			t0 := time.Now()
			d := srcs[op.client].Next(int(op.page))
			pr.nextNs = append(pr.nextNs, p.lap(t0))
			pr.cands += int64(len(d))
			if dists != nil {
				dists[i] = d
			}
		case opObserve:
			t0 := time.Now()
			srcs[op.client].Observe(int(op.page))
			pr.observeNs = append(pr.observeNs, p.lap(t0))
		}
	}
	runtime.ReadMemStats(&ms1)
	pr.mallocs = int64(ms1.Mallocs - ms0.Mallocs)

	if dists != nil {
		p.inline = make([][]core.Item, len(dists))
		for i, d := range dists {
			if d != nil {
				p.inline[i] = rankDist(d, p.site)
			}
		}
	}
	return pr, nil
}

// ranked returns the ranked candidate list the plan of opNext op (at index
// i of the client stream) started from.
func (p *layerPass) ranked(i int, op clientOp) []core.Item {
	switch {
	case p.scripts != nil && p.scripts.Table != nil:
		return p.scripts.Table[op.page]
	case p.scripts != nil:
		return p.scripts.PerClient[op.client].Cands[op.round-1]
	default:
		return p.inline[i]
	}
}

// replayCore solves every traced plan again with a core.Solver: the
// round's ranked candidates truncated to the traced candidate count, the
// round's viewing time and its λ. It returns the total nodes expanded and
// the per-solve times.
func (p *layerPass) replayCore() (int64, []float64, error) {
	s := core.NewSolver()
	var nodes int64
	ns := make([]float64, 0, p.rec.counts[obs.KindPredictNext])
	for i, op := range p.rec.client {
		if op.kind != opNext {
			continue
		}
		items := p.ranked(i, op)
		if len(items) > int(op.cands) {
			items = items[:op.cands]
		}
		problem := core.Problem{Items: items, Viewing: op.viewing, TotalProb: 1}
		t0 := time.Now()
		_, st, err := s.Solve(problem, core.Options{}.WithNetworkLambda(op.lambda))
		ns = append(ns, p.lap(t0))
		if err != nil {
			return 0, nil, err
		}
		nodes += st.Nodes
	}
	return nodes, ns, nil
}

// replayAdaptive feeds every traced feedback snapshot to a per-client
// controller from adaptive.New.
func (p *layerPass) replayAdaptive() ([]float64, error) {
	ctrls := make([]adaptive.Controller, p.sp.Base.Clients)
	for i := range ctrls {
		c, err := adaptive.New(p.sp.Base.Adaptive)
		if err != nil {
			return nil, err
		}
		ctrls[i] = c
	}
	ns := make([]float64, 0, len(p.rec.lambda))
	for _, op := range p.rec.lambda {
		t0 := time.Now()
		ctrls[op.client].Lambda(op.fb)
		ns = append(ns, p.lap(t0))
	}
	return ns, nil
}

// replayCache replays each client's cache traffic: plan probes (Contains
// on ranked candidates until the traced candidate count is kept), the
// demand probe of every access, and an LRU insert per completed transfer.
func (p *layerPass) replayCache() (containsNs, insertNs []float64, err error) {
	slots := p.sp.Base.ClientCacheSlots
	if slots == 0 {
		return nil, nil, nil
	}
	caches := make([]*cache.Cache, p.sp.Base.Clients)
	for i := range caches {
		if caches[i], err = cache.New(slots); err != nil {
			return nil, nil, err
		}
	}
	insertNs = make([]float64, 0, p.rec.counts[obs.KindTransferDone])
	for i, op := range p.rec.client {
		c := caches[op.client]
		switch op.kind {
		case opNext:
			kept := int32(0)
			for _, it := range p.ranked(i, op) {
				if kept == op.cands {
					break
				}
				t0 := time.Now()
				held := c.Contains(it.ID)
				containsNs = append(containsNs, p.lap(t0))
				if !held {
					kept++
				}
			}
		case opObserve:
			t0 := time.Now()
			held := c.Contains(int(op.page))
			containsNs = append(containsNs, p.lap(t0))
			if held {
				c.RecordAccess(int(op.page))
			}
		case opDone:
			t0 := time.Now()
			err := insertLRU(c, int(op.page), p.site.Pages[op.page].Retrieval)
			insertNs = append(insertNs, p.lap(t0))
			if err != nil {
				return nil, nil, err
			}
		}
	}
	return containsNs, insertNs, nil
}

// insertLRU is the simulators' client-cache store: insert, evicting the
// least recently used entry when full.
func insertLRU(c *cache.Cache, id int, retrieval float64) error {
	if c.Contains(id) {
		return nil
	}
	if c.Free() == 0 {
		if v, ok := c.Victim(cache.LRU{}); ok {
			if err := c.Evict(v); err != nil {
				return err
			}
		}
	}
	return c.Insert(id, retrieval)
}

// schedReplay is the scheduler replay's raw measurements.
type schedReplay struct {
	submitNs, completeNs, snapshotNs []float64
	completes                        int64
	clock                            *replayClock
}

// replaySched submits the traced enqueues and promotions at their recorded
// simulated times into fresh schedulers from schedsrv.New, one per replica,
// on a benchmark clock; every transfer takes its traced service time.
// Clock events due at or before an operation's time fire first, so a
// completion precedes the submissions it triggered. Fleet failures call
// Fail, and recoveries install a fresh scheduler.
func (p *layerPass) replaySched() (*schedReplay, error) {
	cfg := p.sp.Base.Sched
	cfg.Concurrency = p.sp.Base.ServerConcurrency
	r := &schedReplay{clock: &replayClock{q: eventq.New(clockEventLess)}}
	fresh := func() (*schedsrv.Scheduler, error) {
		s, err := schedsrv.New(r.clock, cfg)
		if err != nil {
			return nil, err
		}
		s.Done = func(*schedsrv.Request, float64, float64) { r.completes++ }
		return s, nil
	}
	scheds := make([]*schedsrv.Scheduler, p.sp.replicas())
	for i := range scheds {
		s, err := fresh()
		if err != nil {
			return nil, err
		}
		scheds[i] = s
	}
	ops := p.rec.sched
	r.submitNs = make([]float64, 0, p.rec.counts[obs.KindEnqueue])
	r.completeNs = make([]float64, 0, p.rec.counts[obs.KindEnqueue])
	for i := 0; i < len(ops) || r.clock.q.Len() > 0; {
		if ev, ok := r.clock.q.Peek(); ok && (i == len(ops) || ev.at <= ops[i].t) {
			t0 := time.Now()
			r.clock.step()
			r.completeNs = append(r.completeNs, p.lap(t0))
			continue
		}
		op := ops[i]
		i++
		r.clock.now = op.t
		s := scheds[op.replica]
		switch op.kind {
		case schedEnqueue:
			req := schedsrv.Request{Client: int(op.client), Page: int(op.page), Service: op.service, Demand: op.demand}
			t0 := time.Now()
			s.Submit(req)
			r.submitNs = append(r.submitNs, p.lap(t0))
		case schedPromote:
			s.Promote(int(op.client), int(op.page))
		case schedSnapshot:
			t0 := time.Now()
			s.Snapshot(op.t)
			r.snapshotNs = append(r.snapshotNs, p.lap(t0))
		case schedFail:
			s.Fail()
		case schedRecover:
			var err error
			if scheds[op.replica], err = fresh(); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// clockEvent is one scheduled callback on the replay clock; seq keeps
// simultaneous events in scheduling order.
type clockEvent struct {
	at  float64
	seq int64
	fn  func()
}

func clockEventLess(a, b clockEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// queueOp is one logged event-queue operation: a push of (at, seq), or a
// pop when seq is 0.
type queueOp struct {
	at  float64
	seq int64
}

// replayClock is the schedsrv.Clock of the scheduler replay, built on an
// eventq.Queue. It logs every queue operation for the eventq replay.
type replayClock struct {
	now      float64
	seq      int64
	q        *eventq.Queue[clockEvent]
	log      []queueOp
	maxDepth int
}

// Now implements schedsrv.Clock.
func (c *replayClock) Now() float64 { return c.now }

// After implements schedsrv.Clock.
func (c *replayClock) After(delay float64, fn func()) {
	c.seq++
	c.q.Push(clockEvent{at: c.now + delay, seq: c.seq, fn: fn})
	c.log = append(c.log, queueOp{at: c.now + delay, seq: c.seq})
	if n := c.q.Len(); n > c.maxDepth {
		c.maxDepth = n
	}
}

// step fires the earliest event; the caller ensures one is pending.
func (c *replayClock) step() {
	ev, _ := c.q.Pop()
	c.log = append(c.log, queueOp{})
	c.now = ev.at
	ev.fn()
}

// timeQueue replays the scheduler replay's event-queue log on a fresh
// eventq.Queue, timing each push and pop.
func (p *layerPass) timeQueue(log []queueOp) (pushNs, popNs []float64) {
	q := eventq.New(func(a, b queueOp) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	pushNs = make([]float64, 0, len(log)/2+1)
	popNs = make([]float64, 0, len(log)/2+1)
	for _, op := range log {
		t0 := time.Now()
		if op.seq == 0 {
			q.Pop()
			popNs = append(popNs, p.lap(t0))
		} else {
			q.Push(op)
			pushNs = append(pushNs, p.lap(t0))
		}
	}
	return pushNs, popNs
}

// rankDist ranks a predicted distribution as the planner does: positive
// probabilities only, probability descending, page id ascending.
func rankDist(dist map[int]float64, site *webgraph.Site) []core.Item {
	items := make([]core.Item, 0, len(dist))
	for page, prob := range dist {
		if prob > 0 {
			items = append(items, core.Item{ID: page, Prob: prob, Retrieval: site.Pages[page].Retrieval})
		}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].Prob != items[b].Prob {
			return items[a].Prob > items[b].Prob
		}
		return items[a].ID < items[b].ID
	})
	return items
}

// timerOverhead is the median cost of timing an empty call.
func timerOverhead() time.Duration {
	d := make([]float64, 2001)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// lap returns the nanoseconds since t0, less the timer's own cost.
func (p *layerPass) lap(t0 time.Time) float64 {
	if d := time.Since(t0) - p.overhead; d > 0 {
		return float64(d)
	}
	return 0
}

// pcts sorts xs in place and returns its quantiles (0 for each when empty).
func pcts(xs []float64, qs ...float64) []float64 {
	sort.Float64s(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(xs, q)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
