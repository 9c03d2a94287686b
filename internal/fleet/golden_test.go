package fleet

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
)

// goldenPath holds one line per replay configuration: its name, the
// FNV-64a of its JSONL decision trace and the FNV-64a of its %+v Result.
const goldenPath = "testdata/golden_fingerprints.txt"

// goldenCase is one replay configuration: run executes it with the given
// tracer and returns the run's Result for fingerprinting.
type goldenCase struct {
	name string
	run  func(tr obs.Tracer) (Result, error)
}

// goldenBase is the small contended configuration every golden case
// starts from: enough clients and rounds to queue, preempt and evict,
// small enough that the whole matrix runs in a few seconds.
func goldenBase() multiclient.Config {
	cfg := multiclient.DefaultConfig()
	cfg.Clients = 6
	cfg.Rounds = 50
	cfg.ServerConcurrency = 1
	cfg.ServerCacheSlots = 12
	cfg.Seed = 11
	return cfg
}

// goldenCases is the replay matrix. Multiclient: every predictor kind ×
// {fifo, priority+preempt, wfq} × {static, aimd} × drift {off, on}; the
// shared predictor always warms the server cache, and drifting runs use
// the per-round prefetch-only client (no client cache). Fleet: every
// router × {1, 3} replicas × failures {off, on} × {oracle, shared+warm},
// plus the fleet-churn shape (4 replicas of 8 slots, 48 server-cache
// slots, shared+warm, target-util) under least-loaded and hash routing
// with failures off and on, the same shape at 2 slots per replica under
// least-loaded routing with failures off and on, and failures under priority+preempt, wfq,
// shaped and priority+preempt with deferring admission (3 least-loaded
// replicas, shared+warm, aimd). Three multiclient rows under
// priority+preempt cover the controller settings the matrix leaves at
// their defaults: delay-gradient, aimd at Lambda0 0.2 and target-util
// at TargetUtil 0.6.
func goldenCases() []goldenCase {
	scheds := []struct {
		name string
		cfg  schedsrv.Config
	}{
		{"fifo", schedsrv.Config{Kind: schedsrv.KindFIFO}},
		{"priority-preempt", schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}},
		{"wfq", schedsrv.Config{Kind: schedsrv.KindWFQ}},
	}
	var cases []goldenCase
	for _, pk := range predict.Kinds() {
		for _, sc := range scheds {
			for _, ck := range []adaptive.Kind{adaptive.KindStatic, adaptive.KindAIMD} {
				for _, drift := range []int{0, 7} {
					cfg := goldenBase()
					cfg.Predict = predict.Config{Kind: pk}
					cfg.WarmServerCache = pk == predict.KindShared
					cfg.Sched = sc.cfg
					cfg.Adaptive = adaptive.Config{Kind: ck}
					if drift > 0 {
						cfg.DriftEvery = drift
						cfg.ClientCacheSlots = 0
					}
					cases = append(cases, goldenCase{
						name: fmt.Sprintf("mc/%s/%s/%s/drift=%d", pk, sc.name, ck, drift),
						run: func(tr obs.Tracer) (Result, error) {
							c := cfg
							c.Tracer = tr
							return multiclient.Run(c)
						},
					})
				}
			}
		}
	}
	for _, row := range []struct {
		name string
		ac   adaptive.Config
	}{
		{"delay-gradient", adaptive.Config{Kind: adaptive.KindDelayGradient}},
		{"aimd/lambda0=0.2", adaptive.Config{Kind: adaptive.KindAIMD, Lambda0: 0.2}},
		{"target-util/target-util=0.6", adaptive.Config{Kind: adaptive.KindTargetUtil, TargetUtil: 0.6}},
	} {
		cfg := goldenBase()
		cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
		cfg.Adaptive = row.ac
		cases = append(cases, goldenCase{
			name: "mc/controller/" + row.name,
			run: func(tr obs.Tracer) (Result, error) {
				c := cfg
				c.Tracer = tr
				return multiclient.Run(c)
			},
		})
	}
	for _, rk := range Kinds() {
		for _, reps := range []int{1, 3} {
			for _, fail := range []bool{false, true} {
				for _, shared := range []bool{false, true} {
					cfg := Config{Base: goldenBase(), Replicas: reps, Router: rk}
					cfg.Base.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
					pred := "oracle"
					if shared {
						pred = "shared-warm"
						cfg.Base.Predict = predict.Config{Kind: predict.KindShared}
						cfg.Base.WarmServerCache = true
					}
					if fail {
						cfg.FailEvery, cfg.RecoverAfter = 25, 8
					}
					cases = append(cases, goldenCase{
						name: fmt.Sprintf("fleet/%s/r=%d/fail=%t/%s", rk, reps, fail, pred),
						run: func(tr obs.Tracer) (Result, error) {
							c := cfg
							c.Base.Tracer = tr
							return Run(c)
						},
					})
				}
			}
		}
	}
	// The fleet-churn shape: prefetchbench's workload at golden scale.
	// Unlike the rows above it keeps several transfers in flight per
	// replica, so least-loaded routing compares real backlogs. At 8
	// slots per replica the fleet runs far under target-util's setpoint
	// and λ stays 0; the conc=2 rows squeeze the same workload onto 2
	// slots, where utilisation passes 0.5 and λ must leave 0, so they
	// pin the controller's trajectory.
	churn := func(rk Kind, conc int, fail bool) Config {
		cfg := Config{Base: goldenBase(), Replicas: 4, Router: rk}
		cfg.Base.Clients = 32
		cfg.Base.Rounds = 30
		cfg.Base.ServerConcurrency = conc
		cfg.Base.ServerCacheSlots = 48
		cfg.Base.Predict = predict.Config{Kind: predict.KindShared}
		cfg.Base.WarmServerCache = true
		cfg.Base.Adaptive = adaptive.Config{Kind: adaptive.KindTargetUtil}
		if fail {
			cfg.FailEvery, cfg.RecoverAfter = 25, 8
		}
		return cfg
	}
	for _, rk := range []Kind{KindLeastLoaded, KindHash} {
		for _, fail := range []bool{false, true} {
			cfg := churn(rk, 8, fail)
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("fleet-churn/%s/fail=%t", rk, fail),
				run: func(tr obs.Tracer) (Result, error) {
					c := cfg
					c.Base.Tracer = tr
					return Run(c)
				},
			})
		}
	}
	for _, fail := range []bool{false, true} {
		cfg := churn(KindLeastLoaded, 2, fail)
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("fleet-churn/%s/conc=2/fail=%t", KindLeastLoaded, fail),
			run: func(tr obs.Tracer) (Result, error) {
				c := cfg
				c.Base.Tracer = tr
				res, err := Run(c)
				if err == nil && !(res.Lambda.Max() > 0) {
					err = fmt.Errorf("λ never left 0 (utilisation %.2f): the row pins nothing of target-util", res.Utilization())
				}
				return res, err
			},
		})
	}
	// Failures under every non-FIFO discipline: each failure loses a
	// backlog the discipline itself holds, and the admission row also
	// loses requests parked on the deferred list.
	for _, sc := range []struct {
		name string
		cfg  schedsrv.Config
	}{
		{"priority-preempt", schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}},
		{"wfq", schedsrv.Config{Kind: schedsrv.KindWFQ}},
		{"shaped", schedsrv.Config{Kind: schedsrv.KindShaped}},
		{"priority-preempt-admit-defer", schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true, AdmitUtil: 0.5, AdmitDefer: true}},
	} {
		cfg := Config{Base: goldenBase(), Replicas: 3, Router: KindLeastLoaded}
		cfg.Base.Sched = sc.cfg
		cfg.Base.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
		cfg.Base.Predict = predict.Config{Kind: predict.KindShared}
		cfg.Base.WarmServerCache = true
		cfg.FailEvery, cfg.RecoverAfter = 25, 8
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("fleet/%s/r=3/fail=true/shared-warm/%s", KindLeastLoaded, sc.name),
			run: func(tr obs.Tracer) (Result, error) {
				c := cfg
				c.Base.Tracer = tr
				return Run(c)
			},
		})
	}
	return cases
}

// fingerprint runs one case with a JSONL writer attached and returns the
// golden line for it and the run's Result.
func (gc goldenCase) fingerprint() (string, Result, error) {
	th := fnv.New64a()
	w := obs.NewWriter(th)
	res, err := gc.run(w)
	if err != nil {
		return "", Result{}, err
	}
	if err := w.Flush(); err != nil {
		return "", Result{}, err
	}
	rh := fnv.New64a()
	fmt.Fprintf(rh, "%+v", res)
	return fmt.Sprintf("%s %016x %016x", gc.name, th.Sum64(), rh.Sum64()), res, nil
}

// checkSums checks that the per-replica and per-client tables add up to
// the aggregates. Per-replica sums run in server-id order, as the
// engine's do, so the float sums compare exactly.
func checkSums(t *testing.T, name string, res Result) {
	t.Helper()
	var r ReplicaResult
	for _, rr := range res.PerReplica {
		r.Busy += rr.Busy
		r.Requests += rr.Requests
		r.CacheHits += rr.CacheHits
		r.SpecCompleted += rr.SpecCompleted
		r.Preemptions += rr.Preemptions
		r.PrefetchDropped += rr.PrefetchDropped
		r.PrefetchDeferred += rr.PrefetchDeferred
		r.WarmInserted += rr.WarmInserted
		r.WarmHits += rr.WarmHits
		r.Failures += rr.Failures
		r.Recoveries += rr.Recoveries
		r.Lost += rr.Lost
		r.Downtime += rr.Downtime
	}
	var c multiclient.ClientResult
	var rounds int64
	for _, cr := range res.PerClient {
		rounds += cr.Access.N()
		c.PrefetchCompleted += cr.PrefetchCompleted
		c.PrefetchUseful += cr.PrefetchUseful
		c.PrefetchDropped += cr.PrefetchDropped
	}
	for _, s := range []struct {
		what     string
		sum, agg any
	}{
		{"per-replica busy", r.Busy, res.ServerBusy},
		{"per-replica requests", r.Requests, res.ServerRequests},
		{"per-replica cache hits", r.CacheHits, res.ServerCacheHits},
		{"per-replica spec completed", r.SpecCompleted, res.SpecCompleted},
		{"per-replica preemptions", r.Preemptions, res.Preemptions},
		{"per-replica dropped", r.PrefetchDropped, res.PrefetchDropped},
		{"per-replica deferred", r.PrefetchDeferred, res.PrefetchDeferred},
		{"per-replica warm inserted", r.WarmInserted, res.WarmInserted},
		{"per-replica warm hits", r.WarmHits, res.WarmHits},
		{"per-replica failures", int64(r.Failures), res.Failures},
		{"per-replica recoveries", int64(r.Recoveries), res.Recoveries},
		{"per-replica lost", r.Lost, res.LostTransfers},
		{"per-replica downtime", r.Downtime, res.Downtime},
		{"per-client rounds", rounds, res.Access.N()},
		{"per-client prefetch completed", c.PrefetchCompleted, res.PrefetchCompleted},
		{"per-client prefetch useful", c.PrefetchUseful, res.PrefetchUseful},
		{"per-client prefetch dropped", c.PrefetchDropped, res.PrefetchDropped},
	} {
		if s.sum != s.agg {
			t.Errorf("%s: Σ %s = %v, aggregate %v", name, s.what, s.sum, s.agg)
		}
	}
}

// predictorGoldenPath holds the fingerprints of predictorGoldenCases, in
// the same format as goldenPath.
const predictorGoldenPath = "testdata/golden_predictor_fingerprints.txt"

// predictorGoldenCases covers the predictor settings the main matrix
// leaves at their defaults: the uniform cold start (depgraph, ppm,
// shared), PPM and escape-PPM context orders 1 and 3, a mixture weight
// of 0.6 and a decay half-life of 40, each with drift off and on under
// priority+preempt scheduling and the AIMD controller; ppm-escape and
// depgraph at MaxCandidates 1 and 4, with and without the client cache;
// and a 400-page site.
func predictorGoldenCases() []goldenCase {
	uniform := predict.FallbackUniform
	rows := []struct {
		name string
		pc   predict.Config
	}{
		{"depgraph/uniform", predict.Config{Kind: predict.KindDepGraph, ColdStart: uniform}},
		{"ppm/uniform", predict.Config{Kind: predict.KindPPM, ColdStart: uniform}},
		{"shared/uniform", predict.Config{Kind: predict.KindShared, ColdStart: uniform}},
		{"ppm/order=1", predict.Config{Kind: predict.KindPPM, Order: 1}},
		{"ppm/order=3", predict.Config{Kind: predict.KindPPM, Order: 3}},
		{"ppm-escape/order=1", predict.Config{Kind: predict.KindPPMEscape, Order: 1}},
		{"ppm-escape/order=3", predict.Config{Kind: predict.KindPPMEscape, Order: 3}},
		{"mixture/weight=0.6", predict.Config{Kind: predict.KindMixture, MixWeight: 0.6}},
		{"decay/half-life=40", predict.Config{Kind: predict.KindDecay, HalfLife: 40}},
	}
	var cases []goldenCase
	for _, row := range rows {
		for _, drift := range []int{0, 7} {
			cfg := goldenBase()
			cfg.Predict = row.pc
			cfg.WarmServerCache = row.pc.Kind == predict.KindShared
			cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
			cfg.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
			if drift > 0 {
				cfg.DriftEvery = drift
				cfg.ClientCacheSlots = 0
			}
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("mc/%s/drift=%d", row.name, drift),
				run: func(tr obs.Tracer) (Result, error) {
					c := cfg
					c.Tracer = tr
					return multiclient.Run(c)
				},
			})
		}
	}
	// Every row above plans from at most 16 candidates. These keep 1 and
	// 4, with and without the client cache, so the learned planner's
	// cut of each round's candidates shows: at 1 only the most likely
	// unheld page survives, and without a cache nearly every candidate
	// is unheld. The static controller keeps speculating under this
	// contention (AIMD backs off to a few prefetches a run), so the cut
	// changes which pages are fetched, not just the trace's counts.
	for _, pk := range []predict.Kind{predict.KindPPMEscape, predict.KindDepGraph} {
		for _, k := range []int{1, 4} {
			for _, slots := range []int{0, 20} {
				cfg := goldenBase()
				cfg.Predict = predict.Config{Kind: pk}
				cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
				cfg.MaxCandidates = k
				cfg.ClientCacheSlots = slots
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("mc/%s/max-cands=%d/client-cache=%d", pk, k, slots),
					run: func(tr obs.Tracer) (Result, error) {
						c := cfg
						c.Tracer = tr
						return multiclient.Run(c)
					},
				})
			}
		}
	}
	// A 400-page site, whose oracle rows have a support of 400 pages:
	// the shared ranked table when stationary, and under drift a
	// 400-candidate id-ordered row that the planner cuts to 16 every
	// round. The drift-free learned rows read the truth rows of the
	// larger site — Phase A's for ppm-escape, the live walkers' for
	// shared — and the shared row warms its server cache from a
	// popularity ranking with many tied counts.
	for _, row := range []struct {
		name  string
		pc    predict.Config
		drift int
	}{
		{"oracle", predict.Config{Kind: predict.KindOracle}, 0},
		{"oracle", predict.Config{Kind: predict.KindOracle}, 7},
		{"ppm-escape", predict.Config{Kind: predict.KindPPMEscape}, 0},
		{"ppm-escape", predict.Config{Kind: predict.KindPPMEscape}, 7},
		{"shared", predict.Config{Kind: predict.KindShared}, 0},
	} {
		cfg := goldenBase()
		cfg.Site.Pages = 400
		cfg.Predict = row.pc
		cfg.WarmServerCache = row.pc.Kind == predict.KindShared
		cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
		cfg.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
		if row.drift > 0 {
			cfg.DriftEvery = row.drift
			cfg.ClientCacheSlots = 0
		}
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("mc/pages=400/%s/drift=%d", row.name, row.drift),
			run: func(tr obs.Tracer) (Result, error) {
				c := cfg
				c.Tracer = tr
				return multiclient.Run(c)
			},
		})
	}
	return cases
}

// TestReplayGoldenFingerprints replays the matrices above and compares
// each decision trace and Result against fingerprints recorded in
// testdata. Every byte a refactor moves shows up here; a mismatch prints
// the new line so an intentional change can be reviewed and recorded.
func TestReplayGoldenFingerprints(t *testing.T) {
	checkGolden(t, goldenPath, goldenCases())
	checkGolden(t, predictorGoldenPath, predictorGoldenCases())
}

// checkGolden runs every case, checks its sums and compares its line
// with the one recorded in path.
func checkGolden(t *testing.T, path string, cases []goldenCase) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want[strings.Fields(line)[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("%s has %d fingerprints, the matrix has %d cases", path, len(want), len(cases))
	}
	for _, gc := range cases {
		got, res, err := gc.fingerprint()
		if err != nil {
			t.Errorf("%s: %v", gc.name, err)
			continue
		}
		checkSums(t, gc.name, res)
		if got != want[gc.name] {
			t.Errorf("fingerprint mismatch:\n got  %s\n want %s", got, want[gc.name])
		}
	}
}
