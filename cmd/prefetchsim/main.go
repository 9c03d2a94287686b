// Command prefetchsim runs the paper's Monte-Carlo harnesses from the
// command line.
//
// Prefetch-only mode (§4.4; Figures 4 and 5):
//
//	prefetchsim -mode prefetch-only -n 10 -gen skewy -iters 50000 \
//	            -policies none,perfect,kp,skp,skp-paper
//
// Prefetch-cache mode (§5.3; Figure 7). -policies takes Figure 7 planner
// labels or "all" and refuses any other name:
//
//	prefetchsim -mode cache -states 100 -requests 50000 -cachesize 40 \
//	            -policies "No+Pr,KP+Pr,SKP+Pr,SKP+Pr+LFU,SKP+Pr+DS"
//
// Multi-client mode (shared-server contention beyond the paper's
// single-client link): N concurrent surfers with SKP planners and client
// caches share a server with bounded transfer concurrency and an optional
// server-side cache. A single -clients value prints the per-client table;
// a comma list sweeps N with seed-replicated parallel runs:
//
//	prefetchsim -mode multiclient -clients 8 -serverconc 2 -servercache 40
//	prefetchsim -mode multiclient -clients 1,2,4,8,16 -serverconc 2 -reps 3
//
// The shared server's scheduling subsystem (internal/schedsrv) is selected
// with -discipline: fifo (seed behaviour), priority (strict demand
// priority; add -preempt to abort in-flight speculative transfers), wfq
// (weighted fair queueing with -weights demand:spec), or shaped
// (per-client token buckets, -rate and -burst). -admit-util enables
// utilisation-gated admission control of speculative requests. A comma
// list (or "all") sweeps disciplines over the identical workload:
//
//	prefetchsim -mode multiclient -clients 16 -discipline priority -preempt
//	prefetchsim -mode multiclient -clients 16 -discipline wfq -weights 8:1
//	prefetchsim -mode multiclient -clients 16 -discipline all -admit-util 0.85
//
// Adaptive speculation control (internal/adaptive) closes the loop on the
// §6 cost-aware λ: -controller selects how each client re-prices its
// speculation from per-round congestion feedback — static (fixed λ =
// -lambda0), aimd (multiplicative back-off, additive recovery),
// target-util (integral control toward -target-util) or delay-gradient
// (backs off when own demand delay rises). A comma list (or "all")
// sweeps controllers over the identical workload:
//
//	prefetchsim -mode multiclient -clients 16 -controller aimd
//	prefetchsim -mode multiclient -clients 16 -controller all
//	prefetchsim -mode multiclient -clients 16 -controller target-util -target-util 0.6
//
// Prediction sources (internal/predict) select the access model each
// client plans over: -predictor oracle (the surfer's true next-page
// distribution — the default, and bit-for-bit the pre-subsystem planner),
// depgraph (order-1 dependency graph learned online from the client's own
// access stream), ppm (order -ppm-order PPM, same stream; -cold-start
// none|uniform picks the fallback while the model is cold) or shared (one
// server-side model trained on the aggregate stream of every client;
// add -warm-cache with -servercache to let the server pre-admit the
// model's top pages). A comma list (or "all") sweeps predictors over the
// identical workload, and combining predictor and controller lists prints
// the controller×predictor grid with per-controller Pareto frontiers:
//
//	prefetchsim -mode multiclient -clients 16 -predictor depgraph
//	prefetchsim -mode multiclient -clients 16 -predictor all
//	prefetchsim -mode multiclient -clients 16 -predictor shared -servercache 40 -warm-cache
//	prefetchsim -mode multiclient -clients 16 -predictor all -controller all
//
// Non-stationary workloads: -drift-every N re-draws each surfer's hot
// set every N rounds from a per-client derived drift stream
// (deterministic and replay-safe; the oracle stays exact across
// phases). The drift-tracking predictors ride the same axis: decay
// (exponentially decayed counts, -decay-half-life observations),
// mixture (popularity×transition blend at -mix-weight) and ppm-escape
// (escape-blended PPM, -ppm-order):
//
//	prefetchsim -mode multiclient -clients 16 -drift-every 40 -predictor all
//	prefetchsim -mode multiclient -clients 16 -drift-every 40 -predictor decay -decay-half-life 120
//
// Fleet mode replicates the shared server — each replica a full
// scheduling-arbitrated, cache-equipped server built from the
// multiclient flags above — behind a pluggable request router, with
// deterministic replica failure injection. -router selects the routing
// policy (round-robin | least-loaded | hash), -replicas the fleet size;
// comma lists (or "all" for routers) print the router × replicas sweep
// table with availability under churn. -fail-every sets each replica's
// mean time between failures (0 = none; a crash loses the replica's
// queued and in-flight transfers and re-routes the displaced demands)
// and -recover-after the repair time:
//
//	prefetchsim -mode fleet -clients 8 -replicas 4 -router hash -fail-every 40 -recover-after 15
//	prefetchsim -mode fleet -clients 8 -replicas 1,2,4 -router all -fail-every 40 -recover-after 15
//
// Traces: -record FILE writes the generated workload as JSON lines;
// -replay FILE replays a previously recorded workload (prefetch-only mode).
//
// Observability (every mode): -trace-out FILE streams the run's decision
// trace as JSON lines (see internal/obs; inspect with cmd/traceq, or
// convert to a Perfetto timeline with traceq -chrome), and -metrics-out
// FILE writes the aggregated metrics registry as JSON. Both refuse to
// overwrite an existing file unless -force is given (-record too).
// -cpuprofile and -memprofile write pprof profiles. Traces are keyed on
// simulated time and byte-identical for a fixed seed regardless of
// GOMAXPROCS; -trace-out requires a single run (no sweep axes):
//
//	prefetchsim -mode multiclient -clients 8 -controller aimd \
//	            -trace-out run.jsonl -metrics-out run-metrics.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"prefetch"
	"prefetch/internal/access"
	"prefetch/internal/core"
	"prefetch/internal/obs"
	"prefetch/internal/sim"
	"prefetch/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prefetchsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prefetchsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		mode       = fs.String("mode", "prefetch-only", "prefetch-only | cache | session | multiclient | fleet")
		traceOut   = fs.String("trace-out", "", "write the decision trace as JSON lines to this file (single run only)")
		metricsOut = fs.String("metrics-out", "", "write the aggregated metrics registry as JSON to this file")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	// Every other flag binds straight into the per-mode arguments.
	var a modeArgs
	mc := &a.mc
	fs.Uint64Var(&a.seed, "seed", 42, "random seed")
	fs.IntVar(&a.n, "n", 10, "items per round (prefetch-only)")
	fs.StringVar(&a.gen, "gen", "skewy", "probability generator: skewy | flat | zipf | geometric")
	fs.IntVar(&a.iters, "iters", 50000, "iterations (prefetch-only)")
	fs.StringVar(&a.policies, "policies", "", "comma-separated policy list; prefetch-only: none | perfect | kp | greedy | skp | skp-paper (empty: none,perfect,kp,skp); cache: Fig. 7 labels or all (empty: all)")
	fs.StringVar(&a.record, "record", "", "write the workload trace to this file")
	fs.StringVar(&a.replay, "replay", "", "replay a workload trace from this file")
	fs.IntVar(&a.states, "states", 100, "Markov states (cache/session)")
	fs.IntVar(&a.requests, "requests", 50000, "requests (cache/session)")
	fs.IntVar(&a.cacheSize, "cachesize", 40, "cache capacity in items (cache)")
	fs.Float64Var(&a.skew, "skew", 0, "Markov transition skew alpha (cache/session)")

	fs.StringVar(&mc.clients, "clients", "8", "client count, or comma list to sweep (multiclient/fleet)")
	fs.IntVar(&mc.serverConc, "serverconc", 2, "server transfer concurrency (multiclient/fleet)")
	fs.IntVar(&mc.serverCache, "servercache", 0, "shared server cache slots, 0 = none (multiclient/fleet)")
	fs.IntVar(&mc.rounds, "rounds", 300, "browsing rounds per client (multiclient/fleet)")
	fs.IntVar(&mc.reps, "reps", 3, "seed replications per sweep point (multiclient/fleet)")
	fs.IntVar(&mc.shards, "shards", 0, "parallel workload-precompute shards, 0 = one per CPU; results are bit-identical for every value (multiclient/fleet)")

	fs.StringVar(&mc.discipline, "discipline", "fifo", "server scheduling: fifo | priority | wfq | shaped, comma list or \"all\" to sweep (multiclient/fleet)")
	fs.BoolVar(&mc.preempt, "preempt", false, "priority discipline: demands abort in-flight speculative transfers (multiclient/fleet)")
	fs.StringVar(&mc.weights, "weights", "4:1", "wfq demand:speculative class weights (multiclient/fleet)")
	fs.Float64Var(&mc.rate, "rate", 0.5, "shaped discipline: per-client service-seconds of credit per second (multiclient/fleet)")
	fs.Float64Var(&mc.burst, "burst", 8, "shaped discipline: per-client bucket depth in service-seconds (multiclient/fleet)")
	fs.Float64Var(&mc.admitUtil, "admit-util", 0, "drop speculative requests above this utilisation, 0 = off (multiclient/fleet)")
	fs.Float64Var(&mc.admitWindow, "admit-window", 50, "sliding window for the utilisation estimate (multiclient/fleet)")
	fs.BoolVar(&mc.admitDefer, "admit-defer", false, "defer gated speculative requests instead of dropping them (multiclient/fleet)")

	fs.StringVar(&mc.controller, "controller", "static", "adaptive λ controller: static | aimd | target-util | delay-gradient, comma list or \"all\" to sweep (multiclient/fleet)")
	fs.Float64Var(&mc.lambda0, "lambda0", 0, "base network-usage price λ and controller floor (multiclient/fleet)")
	fs.Float64Var(&mc.targetUtil, "target-util", 0.7, "utilisation setpoint for the target-util controller (multiclient/fleet)")

	fs.StringVar(&mc.predictor, "predictor", "oracle", "prediction source: oracle | depgraph | ppm | shared | decay | mixture | ppm-escape, comma list or \"all\" to sweep (multiclient/fleet)")
	fs.IntVar(&mc.ppmOrder, "ppm-order", 2, "PPM context order for -predictor ppm and ppm-escape (multiclient/fleet)")
	fs.StringVar(&mc.coldStart, "cold-start", "none", "learned-predictor cold-start fallback: none | uniform (multiclient/fleet)")
	fs.BoolVar(&mc.warmCache, "warm-cache", false, "server pre-admits the shared model's top pages (needs -predictor shared and -servercache) (multiclient/fleet)")

	fs.StringVar(&mc.replicas, "replicas", "3", "replica count, or comma list to sweep (fleet)")
	fs.StringVar(&mc.router, "router", "hash", "request router: round-robin | least-loaded | hash, comma list or \"all\" to sweep (fleet)")
	fs.Float64Var(&mc.failEvery, "fail-every", 0, "mean time between failures per replica, 0 = none (fleet)")
	fs.Float64Var(&mc.recoverAfter, "recover-after", 0, "repair time after a replica failure (fleet)")

	fs.IntVar(&mc.driftEvery, "drift-every", 0, "re-draw each surfer's hot set every N rounds, 0 = stationary (multiclient/fleet)")
	fs.Float64Var(&mc.decayHalfLife, "decay-half-life", 500, "observation half-life for -predictor decay (multiclient/fleet)")
	fs.Float64Var(&mc.mixWeight, "mix-weight", 0.25, "popularity share for -predictor mixture, in (0, 1) (multiclient/fleet)")

	fs.BoolVar(&a.force, "force", false, "overwrite existing -record/-trace-out/-metrics-out/-*profile files")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	mc.seed = a.seed // one -seed drives every mode

	// Flag values consumed only by the multiclient mode are still
	// validated in every mode: a typo'd -discipline or -controller must
	// exit non-zero instead of being silently ignored.
	if _, err := parseDisciplines(mc.discipline); err != nil {
		return err
	}
	if _, err := parseControllers(mc.controller); err != nil {
		return err
	}
	if _, err := parsePredictors(mc.predictor); err != nil {
		return err
	}
	if _, err := parseRouters(mc.router); err != nil {
		return err
	}
	if _, err := parseReplicas(mc.replicas); err != nil {
		return err
	}
	failCheck := prefetch.DefaultFleetConfig()
	failCheck.FailEvery, failCheck.RecoverAfter = mc.failEvery, mc.recoverAfter
	if err := failCheck.Validate(); err != nil {
		return fmt.Errorf("-fail-every/-recover-after: %w", err)
	}
	// The drift and predictor tunables are likewise validated in every
	// mode; PredictConfig treats zeros as "use the default", so explicit
	// bad values (and NaN) must be refused here rather than silently
	// defaulted.
	if mc.driftEvery < 0 {
		return fmt.Errorf("-drift-every must be >= 0 (got %d)", mc.driftEvery)
	}
	if !(mc.decayHalfLife > 0) || math.IsInf(mc.decayHalfLife, 0) {
		return fmt.Errorf("-decay-half-life must be finite and positive (got %v)", mc.decayHalfLife)
	}
	if !(mc.mixWeight > 0 && mc.mixWeight < 1) {
		return fmt.Errorf("-mix-weight must be in (0, 1) (got %v)", mc.mixWeight)
	}

	obsOut, err := setupObs(*traceOut, *metricsOut, a.force)
	if err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := createOutput(*cpuprofile, a.force)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	runErr := dispatch(*mode, out, obsOut.tracer, a)
	// Flush the observability outputs even when the run failed — a
	// partial trace is still evidence.
	if err := obsOut.finish(); runErr == nil {
		runErr = err
	}
	if runErr == nil && *memprofile != "" {
		runErr = writeMemProfile(*memprofile, a.force)
	}
	return runErr
}

// modeArgs bundles the per-mode flag values for dispatch.
type modeArgs struct {
	seed                        uint64
	n                           int
	gen                         string
	iters                       int
	policies                    string
	record, replay              string
	force                       bool
	states, requests, cacheSize int
	skew                        float64
	mc                          mcOptions
}

func dispatch(mode string, out io.Writer, tr obs.Tracer, a modeArgs) error {
	switch mode {
	case "prefetch-only":
		return runPrefetchOnly(out, a.seed, a.n, a.gen, a.iters, a.policies, a.record, a.replay, a.force, tr)
	case "cache":
		return runCache(out, a.seed, a.states, a.requests, a.cacheSize, a.skew, a.policies, tr)
	case "session":
		return runSession(out, a.seed, a.states, a.requests, a.skew, tr)
	case "multiclient":
		return runMultiClient(out, a.mc, tr)
	case "fleet":
		return runFleet(out, a.mc, tr)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}

// createOutput creates path for writing. Without force an existing file
// is refused, so a run cannot silently clobber earlier results.
func createOutput(path string, force bool) (*os.File, error) {
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if !force {
		flags = os.O_WRONLY | os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("%s already exists (pass -force to overwrite)", path)
	}
	return f, err
}

// registryTracer folds every event into a metrics registry.
type registryTracer struct{ reg *obs.Registry }

func (registryTracer) Enabled() bool       { return true }
func (t registryTracer) Emit(ev obs.Event) { t.reg.Accumulate(ev) }

// obsOutputs owns a run's observability sinks: an optional JSONL trace
// writer and an optional metrics registry, fanned out behind one tracer.
type obsOutputs struct {
	tracer  obs.Tracer
	writer  *obs.Writer
	traceF  *os.File
	reg     *obs.Registry
	metrics string
	force   bool
}

// setupObs opens the -trace-out / -metrics-out sinks. The metrics file
// is created up front so a clobber is refused before the run spends any
// time, but written only at finish.
func setupObs(traceOut, metricsOut string, force bool) (*obsOutputs, error) {
	o := &obsOutputs{metrics: metricsOut, force: force}
	var sinks obs.Multi
	if traceOut != "" {
		f, err := createOutput(traceOut, force)
		if err != nil {
			return nil, err
		}
		o.traceF = f
		o.writer = obs.NewWriter(f)
		sinks = append(sinks, o.writer)
	}
	if metricsOut != "" {
		f, err := createOutput(metricsOut, force)
		if err != nil {
			if o.traceF != nil {
				o.traceF.Close()
			}
			return nil, err
		}
		f.Close() // reopened at finish; this call only reserved the path
		o.reg = obs.NewRegistry()
		sinks = append(sinks, registryTracer{o.reg})
	}
	if len(sinks) > 0 {
		o.tracer = sinks
	}
	return o, nil
}

// finish flushes the trace and writes the metrics file.
func (o *obsOutputs) finish() error {
	var first error
	if o.writer != nil {
		if err := o.writer.Flush(); first == nil {
			first = err
		}
		if err := o.traceF.Close(); first == nil {
			first = err
		}
	}
	if o.reg != nil {
		f, err := createOutput(o.metrics, true)
		if err != nil {
			if first == nil {
				first = err
			}
			return first
		}
		if err := o.reg.WriteJSON(f); first == nil {
			first = err
		}
		if err := f.Close(); first == nil {
			first = err
		}
	}
	return first
}

// writeMemProfile snapshots the heap after a GC, the standard pprof
// idiom for allocation profiles.
func writeMemProfile(path string, force bool) error {
	f, err := createOutput(path, force)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prefetchOnlyPolicies lists every policy -mode prefetch-only runs; a
// -policies name selects the one whose Name it is.
var prefetchOnlyPolicies = []sim.Policy{
	sim.NoPrefetch{}, sim.PerfectPolicy{}, sim.KPPolicy{}, sim.GreedyPolicy{},
	sim.SKPPolicy{}, sim.SKPPolicy{Mode: core.DeltaPaperTail},
}

// parsePolicies selects prefetch-only policies by name, in list order;
// an empty list selects none, perfect, kp and skp.
func parsePolicies(list string) ([]sim.Policy, error) {
	if list == "" {
		list = "none,perfect,kp,skp"
	}
	var out []sim.Policy
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i := slices.IndexFunc(prefetchOnlyPolicies, func(p sim.Policy) bool { return p.Name() == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown policy %q", name)
		}
		out = append(out, prefetchOnlyPolicies[i])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no policies given")
	}
	return out, nil
}

func runPrefetchOnly(out io.Writer, seed uint64, n int, genName string, iters int, policyList, record, replay string, force bool, tr obs.Tracer) error {
	var rounds []workload.Round
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return err
		}
		defer f.Close()
		rounds, err = workload.ReadTrace(f)
		if err != nil {
			return err
		}
	} else {
		pg, err := access.GenByName(genName)
		if err != nil {
			return err
		}
		r := prefetch.NewRand(seed)
		rounds, err = workload.Random(r, workload.Fig45Config(n, pg), iters)
		if err != nil {
			return err
		}
	}
	if record != "" {
		f, err := createOutput(record, force)
		if err != nil {
			return err
		}
		if err := workload.WriteTrace(f, rounds); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded %d rounds to %s\n", len(rounds), record)
	}
	pols, err := parsePolicies(policyList)
	if err != nil {
		return err
	}
	results, err := sim.RunPrefetchOnly(rounds, pols, sim.PrefetchOnlyOptions{Tracer: tr})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %10s %10s %10s %12s %12s\n", "policy", "mean T", "±95%", "max T", "waste/round", "usage/round")
	for _, res := range results {
		fmt.Fprintf(out, "%-12s %10.4f %10.4f %10.2f %12.3f %12.3f\n",
			res.Policy, res.Overall.Mean(), res.Overall.CI95(), res.Overall.Max(),
			res.Waste.Mean(), res.Usage.Mean())
	}
	return nil
}

// parseCachePlanners selects Fig. 7 planners by label, in the paper's
// order. "all", or an empty list, selects all five; any other name is an
// error.
func parseCachePlanners(list string) ([]sim.CachePlanner, error) {
	all := prefetch.Fig7Planners(prefetch.DeltaTheorem3)
	if list == "" {
		return all, nil
	}
	known := map[string]bool{"all": true}
	for _, p := range all {
		known[p.Label] = true
	}
	wanted := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown cache policy %q (want all, No+Pr, KP+Pr, SKP+Pr, SKP+Pr+LFU or SKP+Pr+DS)", name)
		}
		wanted[name] = true
	}
	var out []sim.CachePlanner
	for _, p := range all {
		if wanted["all"] || wanted[p.Label] {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no policies given")
	}
	return out, nil
}

func runCache(out io.Writer, seed uint64, states, requests, cacheSize int, skew float64, policyList string, tr obs.Tracer) error {
	planners, err := parseCachePlanners(policyList)
	if err != nil {
		return err
	}
	r := prefetch.NewRand(seed)
	cfg := prefetch.Fig7MarkovConfig()
	cfg.States = states
	cfg.SkewAlpha = skew
	if states < cfg.MaxOut {
		cfg.MinOut = max(1, states/4)
		cfg.MaxOut = max(cfg.MinOut, states/2)
	}
	trace, err := prefetch.BuildMarkovTrace(r, cfg, 1, 30, requests)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %10s %10s %8s %14s %14s\n", "policy", "mean T", "±95%", "hit%", "prefetch-net", "demand-net")
	for track, planner := range planners { // one trace track per planner
		res, err := sim.RunPrefetchCache(trace, planner, cacheSize, sim.CacheOptions{Tracer: tr, Track: track})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-12s %10.4f %10.4f %7.1f%% %14.0f %14.0f\n",
			res.Policy, res.Access.Mean(), res.Access.CI95(), 100*res.HitRate(),
			res.Prefetch, res.Demand)
	}
	return nil
}

func runSession(out io.Writer, seed uint64, states, requests int, skew float64, tr obs.Tracer) error {
	r := prefetch.NewRand(seed)
	cfg := prefetch.MarkovConfig{
		States: states, MinOut: 10, MaxOut: 20, MinViewing: 1, MaxViewing: 20, SkewAlpha: skew,
	}
	if states < 20 {
		cfg.MinOut = max(1, states/4)
		cfg.MaxOut = max(cfg.MinOut, states/2)
	}
	trace, err := prefetch.BuildMarkovTrace(r, cfg, 1, 30, requests)
	if err != nil {
		return err
	}
	planners := []struct {
		pol  sim.Policy
		opts sim.SessionOptions
	}{
		{sim.NoPrefetch{}, sim.SessionOptions{}},
		{sim.KPPolicy{}, sim.SessionOptions{}},
		{sim.SKPPolicy{}, sim.SessionOptions{}},
		{sim.LookaheadPolicy{}, sim.SessionOptions{}},
		{sim.Depth2Policy{}, sim.SessionOptions{}},
		{sim.Depth2Policy{}, sim.SessionOptions{EffectiveViewing: true}},
	}
	fmt.Fprintf(out, "%-16s %10s %14s\n", "planner", "mean T", "net/request")
	for i, pl := range planners {
		pl.opts.Tracer = tr
		pl.opts.Track = i
		res, err := sim.RunMarkovSession(trace, pl.pol, pl.opts)
		if err != nil {
			return err
		}
		label := res.Policy
		if pl.opts.EffectiveViewing {
			label += "+eff-v"
		}
		fmt.Fprintf(out, "%-16s %10.4f %14.3f\n", label, res.Access.Mean(), res.NetworkBusy/float64(res.Requests))
	}
	return nil
}

// mcOptions bundles the multiclient-mode flags.
type mcOptions struct {
	seed          uint64
	clients       string
	serverConc    int
	serverCache   int
	rounds        int
	reps          int
	shards        int
	discipline    string
	preempt       bool
	weights       string
	rate          float64
	burst         float64
	admitUtil     float64
	admitWindow   float64
	admitDefer    bool
	controller    string
	lambda0       float64
	targetUtil    float64
	predictor     string
	ppmOrder      int
	coldStart     string
	warmCache     bool
	driftEvery    int
	decayHalfLife float64
	mixWeight     float64
	replicas      string
	router        string
	failEvery     float64
	recoverAfter  float64
}

// parseWeights parses "demand:spec" wfq class weights.
func parseWeights(s string) (demand, spec float64, err error) {
	d, sp, ok := strings.Cut(s, ":")
	if ok {
		demand, err = strconv.ParseFloat(strings.TrimSpace(d), 64)
		if err == nil {
			spec, err = strconv.ParseFloat(strings.TrimSpace(sp), 64)
		}
	}
	// Positive-form checks so NaN is rejected too; "inf" parses without
	// error, so infinities are refused explicitly.
	if !ok || err != nil || !(demand > 0) || !(spec > 0) || math.IsInf(demand, 0) || math.IsInf(spec, 0) {
		return 0, 0, fmt.Errorf("bad -weights %q (want finite demand:spec, e.g. 4:1)", s)
	}
	return demand, spec, nil
}

// parseKinds parses a single kind, a comma list, or "all" against a
// canonical kind list; what names the flag in errors.
func parseKinds[K ~string](s, what string, all []K) ([]K, error) {
	if strings.TrimSpace(s) == "all" {
		return all, nil
	}
	var kinds []K
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind := K(part)
		known := false
		for _, k := range all {
			if kind == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown %s %q", what, part)
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no %ss given", what)
	}
	return kinds, nil
}

// parseDisciplines parses the -discipline flag against SchedKinds().
func parseDisciplines(s string) ([]prefetch.SchedKind, error) {
	return parseKinds(s, "discipline", prefetch.SchedKinds())
}

// parseControllers parses the -controller flag against ControllerKinds().
func parseControllers(s string) ([]prefetch.ControllerKind, error) {
	return parseKinds(s, "controller", prefetch.ControllerKinds())
}

// parsePredictors parses the -predictor flag against PredictorKinds().
func parsePredictors(s string) ([]prefetch.PredictorKind, error) {
	return parseKinds(s, "predictor", prefetch.PredictorKinds())
}

// parseRouters parses the -router flag against RouterKinds().
func parseRouters(s string) ([]prefetch.FleetRouterKind, error) {
	return parseKinds(s, "router", prefetch.RouterKinds())
}

// parseCounts parses a single positive count or a comma-separated sweep
// axis; what names the flag in errors.
func parseCounts(list, what string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad %s %q", what, part)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("no %ss given", what)
	}
	return ns, nil
}

// parseClients parses a single client count or a comma-separated sweep axis.
func parseClients(list string) ([]int, error) { return parseCounts(list, "client count") }

// parseReplicas parses a single replica count or a comma-separated sweep axis.
func parseReplicas(list string) ([]int, error) { return parseCounts(list, "replica count") }

// mcConfig validates the multiclient flag values and builds the base
// config (Clients unset — callers pick from ns) plus the parsed sweep
// lists. Shared by the multiclient and fleet modes.
func mcConfig(opt mcOptions) (cfg prefetch.MultiClientConfig, ns []int, kinds []prefetch.SchedKind, ctls []prefetch.ControllerKind, preds []prefetch.PredictorKind, err error) {
	ns, err = parseClients(opt.clients)
	if err != nil {
		return
	}
	kinds, err = parseDisciplines(opt.discipline)
	if err != nil {
		return
	}
	demandW, specW, err := parseWeights(opt.weights)
	if err != nil {
		return
	}
	// SchedConfig treats zero tunables as "use the default", so an explicit
	// -rate 0 would silently become 0.5; refuse it (and NaN) here instead.
	if !(opt.rate > 0) || !(opt.burst > 0) {
		err = fmt.Errorf("-rate and -burst must be positive (got %v, %v)", opt.rate, opt.burst)
		return
	}
	if !(opt.admitWindow > 0) {
		err = fmt.Errorf("-admit-window must be positive (got %v)", opt.admitWindow)
		return
	}
	if opt.admitDefer && !(opt.admitUtil > 0) {
		err = fmt.Errorf("-admit-defer requires -admit-util > 0")
		return
	}
	ctls, err = parseControllers(opt.controller)
	if err != nil {
		return
	}
	// ControllerConfig treats a zero setpoint as "use the default", so an
	// explicit -target-util 0 would silently become 0.7; refuse it (and
	// NaN) here instead.
	if !(opt.targetUtil > 0 && opt.targetUtil < 1) {
		err = fmt.Errorf("-target-util must be in (0, 1) (got %v)", opt.targetUtil)
		return
	}
	preds, err = parsePredictors(opt.predictor)
	if err != nil {
		return
	}
	// PredictConfig treats a zero order as "use the default", so an
	// explicit -ppm-order 0 would silently become 2; refuse it here.
	if opt.ppmOrder < 1 {
		err = fmt.Errorf("-ppm-order must be >= 1 (got %d)", opt.ppmOrder)
		return
	}
	cfg = prefetch.DefaultMultiClientConfig()
	cfg.Seed = opt.seed
	cfg.ServerConcurrency = opt.serverConc
	cfg.ServerCacheSlots = opt.serverCache
	cfg.Rounds = opt.rounds
	cfg.Shards = opt.shards
	cfg.Sched = prefetch.SchedConfig{
		Kind:         kinds[0],
		Preempt:      opt.preempt,
		DemandWeight: demandW,
		SpecWeight:   specW,
		Rate:         opt.rate,
		Burst:        opt.burst,
		AdmitUtil:    opt.admitUtil,
		AdmitWindow:  opt.admitWindow,
		AdmitDefer:   opt.admitDefer,
	}
	cfg.Adaptive = prefetch.ControllerConfig{
		Kind:       ctls[0],
		Lambda0:    opt.lambda0,
		TargetUtil: opt.targetUtil,
	}
	if err = cfg.Adaptive.Validate(); err != nil {
		return
	}
	cfg.Predict = prefetch.PredictConfig{
		Kind:      preds[0],
		Order:     opt.ppmOrder,
		ColdStart: prefetch.PredictorFallback(opt.coldStart),
		HalfLife:  opt.decayHalfLife,
		MixWeight: opt.mixWeight,
	}
	if err = cfg.Predict.Validate(); err != nil {
		return
	}
	cfg.DriftEvery = opt.driftEvery
	cfg.WarmServerCache = opt.warmCache
	if opt.warmCache {
		// Fail the flag combination up front with a CLI-level message
		// (Validate would reject it too, but less readably).
		if opt.serverCache <= 0 {
			err = fmt.Errorf("-warm-cache needs -servercache > 0")
			return
		}
		if len(preds) != 1 || preds[0] != prefetch.PredictorShared {
			err = fmt.Errorf("-warm-cache needs -predictor shared")
			return
		}
	}
	return
}

func runMultiClient(out io.Writer, opt mcOptions, tr obs.Tracer) error {
	cfg, ns, kinds, ctls, preds, err := mcConfig(opt)
	if err != nil {
		return err
	}
	reps := opt.reps
	// Non-default scheduling extends the seed's tables with the
	// discipline-specific columns; the default output stays byte-identical.
	extended := cfg.Sched.Kind != prefetch.SchedFIFO || opt.preempt || opt.admitUtil > 0
	// Non-default speculation control adds the controller summary line; in
	// sweep tables (which carry no λ column) it becomes a header note.
	ctlExtended := ctls[0] != prefetch.ControllerStatic || opt.lambda0 > 0
	ctlNote := ""
	if ctlExtended {
		ctlNote = fmt.Sprintf(", controller %s (λ0 %g)", cfg.Adaptive.Kind, cfg.Adaptive.Lambda0)
	}
	// A non-oracle predictor likewise adds a summary line / header note.
	predExtended := preds[0] != prefetch.PredictorOracle || opt.warmCache
	predNote := ""
	if predExtended {
		predNote = fmt.Sprintf(", predictor %s", cfg.Predict.Kind)
	}
	// A non-stationary workload is flagged in every header; the default
	// (stationary) output stays byte-identical.
	driftNote := ""
	if opt.driftEvery > 0 {
		driftNote = fmt.Sprintf(", drift every %d rounds", opt.driftEvery)
	}

	if len(kinds) > 1 && (len(ctls) > 1 || len(preds) > 1) {
		return fmt.Errorf("sweep one axis at a time: -discipline combines with neither a -controller nor a -predictor list")
	}
	// Sweeps run replicated parallel legs; a single merged trace would be
	// meaningless (and its ordering nondeterministic), so tracing demands
	// one run.
	if tr != nil && (len(ns) > 1 || len(kinds) > 1 || len(ctls) > 1 || len(preds) > 1) {
		return fmt.Errorf("-trace-out/-metrics-out need a single run: drop the sweep axes (clients/discipline/controller/predictor lists)")
	}
	cfg.Tracer = tr
	disc := cfg.Sched.Kind
	if disc == "" {
		disc = prefetch.SchedFIFO
	}
	if len(preds) > 1 && len(ctls) > 1 {
		return runPredictorControllerSweep(out, cfg, ns, preds, ctls, reps, disc, driftNote)
	}
	// The single-axis sweeps: one table per client count, the axis
	// swept over the identical seed-replicated workload.
	tail := fmt.Sprintf(", server concurrency %d, %d reps, %d rounds each\n\n", cfg.ServerConcurrency, reps, cfg.Rounds)
	if len(preds) > 1 {
		return runAxisSweep(out, cfg, ns, reps, prefetch.MultiClientPredictorAxis(preds), func(n int) string {
			return fmt.Sprintf("predictor sweep, %d clients, discipline %s%s", n, disc, ctlNote+driftNote) + tail
		}, predictorColumns)
	}
	if len(ctls) > 1 {
		return runAxisSweep(out, cfg, ns, reps, prefetch.MultiClientControllerAxis(ctls), func(n int) string {
			return fmt.Sprintf("controller sweep, %d clients, discipline %s%s", n, disc, predNote+driftNote) + tail
		}, controllerColumns)
	}
	if len(kinds) > 1 {
		return runAxisSweep(out, cfg, ns, reps, prefetch.MultiClientDisciplineAxis(kinds), func(n int) string {
			return fmt.Sprintf("discipline sweep, %d clients%s", n, ctlNote+predNote+driftNote) + tail
		}, disciplineColumns)
	}

	if len(ns) == 1 {
		cfg.Clients = ns[0]
		cmp, err := prefetch.CompareMultiClient(cfg)
		if err != nil {
			return err
		}
		res := cmp.Prefetch
		fmt.Fprintf(out, "%d clients, server concurrency %d, server cache %d slots, %d rounds each%s\n\n",
			cfg.Clients, cfg.ServerConcurrency, cfg.ServerCacheSlots, cfg.Rounds, driftNote)
		fmt.Fprintf(out, "%-8s %10s %12s %12s %10s %10s\n",
			"client", "mean T", "queue wait", "prefetches", "0-wait%", "improve%")
		for i, pc := range res.PerClient {
			fmt.Fprintf(out, "%-8d %10.4f %12.4f %12d %9.1f%% %9.1f%%\n",
				pc.Client, pc.Access.Mean(), pc.QueueWait.Mean(), pc.PrefetchIssued,
				100*float64(pc.ZeroWaitRounds)/float64(pc.Access.N()),
				100*cmp.ClientImprovement(i))
		}
		var zeroWait int64
		for _, pc := range res.PerClient {
			zeroWait += pc.ZeroWaitRounds
		}
		fmt.Fprintf(out, "\n%-8s %10.4f %12.4f %12s %9.1f%% %9.1f%%\n",
			"all", res.Access.Mean(), res.QueueWait.Mean(), "",
			100*float64(zeroWait)/float64(res.Access.N()), 100*cmp.Improvement())
		fmt.Fprintf(out, "server utilization %.1f%%\n", 100*res.Utilization())
		if cfg.ServerCacheSlots > 0 {
			fmt.Fprintf(out, "server cache hit rate %.1f%%\n", 100*res.HitRate())
		}
		if extended {
			fmt.Fprintf(out, "\ndiscipline %s: demand access %.4f, speculative throughput %.4f/s\n",
				res.Discipline, res.DemandAccess.Mean(), res.SpecThroughput())
			if res.Preemptions > 0 {
				fmt.Fprintf(out, "preempted speculative transfers: %d\n", res.Preemptions)
			}
			if opt.admitUtil > 0 {
				fmt.Fprintf(out, "admission: %d dropped, %d deferred\n", res.PrefetchDropped, res.PrefetchDeferred)
			}
		}
		if ctlExtended {
			fmt.Fprintf(out, "\ncontroller %s: mean λ %.3f, max λ %.3f, demand access %.4f\n",
				res.Controller, res.Lambda.Mean(), res.Lambda.Max(), res.DemandAccess.Mean())
		}
		if predExtended {
			fmt.Fprintf(out, "\npredictor %s: L1 error %.3f, wasted-prefetch %.1f%%, hit ratio %.1f%% (demand access %.4f)\n",
				res.Predictor, res.L1Error.Mean(), 100*res.WastedPrefetchFraction(),
				100*res.HitRatio(), res.DemandAccess.Mean())
			if opt.warmCache {
				fmt.Fprintf(out, "cache warming: %d pre-admitted, %d warm hits\n",
					res.WarmInserted, res.WarmHits)
			}
		}
		return nil
	}

	clients, err := prefetch.MultiClientClientsAxis(ns)
	if err != nil {
		return err
	}
	points, err := prefetch.SweepMultiClientGrid(cfg, reps, 0, true, clients)
	if err != nil {
		return err
	}
	if extended {
		fmt.Fprintf(out, "sweep over clients, discipline %s%s%s%s, server concurrency %d, %d reps, %d rounds each\n\n",
			cfg.Sched.Kind, ctlNote, predNote, driftNote, cfg.ServerConcurrency, reps, cfg.Rounds)
		printTable(out, []column{colClients, colDemandT, colMeanT, colQueueWait, colSpec, colUtil, colImprove}, points)
		return nil
	}
	fmt.Fprintf(out, "sweep over clients%s%s%s, server concurrency %d, %d reps, %d rounds each\n\n",
		ctlNote, predNote, driftNote, cfg.ServerConcurrency, reps, cfg.Rounds)
	printTable(out, []column{colClients, colMeanT, colCI95, colQueueWait, colUtil, colImprove}, points)
	return nil
}

// column is one column of a sweep table: its name, the header and row
// cell formats, and the value the table's i-th grid cell shows in it.
type column struct {
	name      string
	head, row string
	val       func(i int, p prefetch.MultiClientPoint) any
}

// The columns the sweep tables share.
var (
	colClients   = column{"clients", "%-8s", "%-8d", func(_ int, p prefetch.MultiClientPoint) any { return p.Clients }}
	colDemandT   = column{"demand T", "%10s", "%10.4f", func(_ int, p prefetch.MultiClientPoint) any { return p.DemandAccess.Mean() }}
	colMeanT     = column{"mean T", "%10s", "%10.4f", func(_ int, p prefetch.MultiClientPoint) any { return p.Access.Mean() }}
	colCI95      = column{"±95%", "%10s", "%10.4f", func(_ int, p prefetch.MultiClientPoint) any { return p.Access.CI95() }}
	colQueueWait = column{"queue wait", "%12s", "%12.4f", func(_ int, p prefetch.MultiClientPoint) any { return p.QueueWait.Mean() }}
	colLambda    = column{"mean λ", "%8s", "%8.3f", func(_ int, p prefetch.MultiClientPoint) any { return p.Lambda.Mean() }}
	colL1        = column{"L1 err", "%8s", "%8.3f", func(_ int, p prefetch.MultiClientPoint) any { return p.L1Error.Mean() }}
	colWaste     = column{"waste%", "%8s", "%7.1f%%", func(_ int, p prefetch.MultiClientPoint) any { return 100 * p.WastedFraction.Mean() }}
	colHit       = column{"hit%", "%8s", "%7.1f%%", func(_ int, p prefetch.MultiClientPoint) any { return 100 * p.HitRatio.Mean() }}
	colSpec      = column{"spec/s", "%10s", "%10.4f", func(_ int, p prefetch.MultiClientPoint) any { return p.SpecThroughput.Mean() }}
	colDrops     = column{"drops", "%8s", "%8d", func(_ int, p prefetch.MultiClientPoint) any { return p.PrefetchDropped }}
	colPreempt   = column{"preempt", "%8s", "%8d", func(_ int, p prefetch.MultiClientPoint) any { return p.Preemptions }}
	colUtil      = column{"util%", "%10s", "%9.1f%%", func(_ int, p prefetch.MultiClientPoint) any { return 100 * p.Utilization.Mean() }}
	colImprove   = column{"improve%", "%10s", "%9.1f%%", func(_ int, p prefetch.MultiClientPoint) any { return 100 * p.Improvement.Mean() }}
	colAvail     = column{"avail%", "%8s", "%7.1f%%", func(_ int, p prefetch.MultiClientPoint) any { return 100 * p.Availability.Mean() }}
	colReroutes  = column{"reroutes", "%9s", "%9d", func(_ int, p prefetch.MultiClientPoint) any { return p.ReRoutes }}
	colLost      = column{"lost", "%6s", "%6d", func(_ int, p prefetch.MultiClientPoint) any { return p.LostTransfers }}
)

// labelColumn shows each cell's label on the given axis.
func labelColumn(axis int, name, format string) column {
	return column{name, format, format, func(_ int, p prefetch.MultiClientPoint) any { return p.Labels[axis] }}
}

// The tables that name each cell by its axis labels.
var (
	disciplineColumns = []column{labelColumn(0, "discipline", "%-10s"), colDemandT, colMeanT, colQueueWait, colSpec, colDrops, colPreempt, colImprove}
	controllerColumns = []column{labelColumn(0, "controller", "%-15s"), colDemandT, colMeanT, colQueueWait, colLambda, colSpec, colDrops, colImprove}
	predictorColumns  = []column{labelColumn(0, "predictor", "%-10s"), colDemandT, colMeanT, colL1, colWaste, colHit, colSpec, colImprove}
	fleetColumns      = []column{labelColumn(0, "router", "%-13s"), labelColumn(1, "replicas", "%9s"), colDemandT, colMeanT, colQueueWait, colAvail, colReroutes, colLost}
)

// printTable writes a header row and one row per grid cell.
func printTable(out io.Writer, cols []column, points []prefetch.MultiClientPoint) {
	heads, rows := make([]string, len(cols)), make([]string, len(cols))
	vals := make([]any, len(cols))
	for i, c := range cols {
		heads[i], rows[i], vals[i] = c.head, c.row, c.name
	}
	fmt.Fprintf(out, strings.Join(heads, " ")+"\n", vals...)
	for pi, p := range points {
		for i, c := range cols {
			vals[i] = c.val(pi, p)
		}
		fmt.Fprintf(out, strings.Join(rows, " ")+"\n", vals...)
	}
}

// runAxisSweep prints one table per client count: axis swept over the
// identical seed-replicated workload, each cell with its no-prefetch
// baseline. title(n) is the header line for n clients.
func runAxisSweep(out io.Writer, cfg prefetch.MultiClientConfig, ns []int, reps int, axis prefetch.MultiClientAxis, title func(n int) string, cols []column) error {
	for i, n := range ns {
		if i > 0 {
			fmt.Fprintln(out)
		}
		cfg.Clients = n
		points, err := prefetch.SweepMultiClientGrid(cfg, reps, 0, true, axis)
		if err != nil {
			return err
		}
		fmt.Fprint(out, title(n))
		printTable(out, cols, points)
	}
	return nil
}

// runPredictorControllerSweep prints the controller×predictor grid, one
// Pareto table per controller per client count: within a controller the
// rows are predictors and the frontier marker (*) flags the cells
// non-dominated on (demand latency ↓, speculative throughput ↑) — the
// view that exposes a weak predictor even when an adaptive λ controller
// hides it in raw latency.
func runPredictorControllerSweep(out io.Writer, cfg prefetch.MultiClientConfig, ns []int, preds []prefetch.PredictorKind, ctls []prefetch.ControllerKind, reps int, disc prefetch.SchedKind, note string) error {
	for i, n := range ns {
		if i > 0 {
			fmt.Fprintln(out)
		}
		cfg.Clients = n
		// No baseline leg: the controller comparison is relative, so the
		// doubled simulation cost would buy nothing.
		points, err := prefetch.SweepMultiClientGrid(cfg, reps, 0, false,
			prefetch.MultiClientControllerAxis(ctls), prefetch.MultiClientPredictorAxis(preds))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "controller × predictor sweep, %d clients, discipline %s%s, server concurrency %d, %d reps, %d rounds each\n",
			n, disc, note, cfg.ServerConcurrency, reps, cfg.Rounds)
		fmt.Fprintf(out, "(* = on the controller's (demand T, spec/s) Pareto frontier)\n")
		for ci, ctl := range ctls {
			group := points[ci*len(preds) : (ci+1)*len(preds)]
			frontier := prefetch.ParetoFrontier(group)
			colPareto := column{"pareto", "%7s", "%7s", func(i int, _ prefetch.MultiClientPoint) any {
				if frontier[i] {
					return "*"
				}
				return ""
			}}
			fmt.Fprintf(out, "\ncontroller %s\n", ctl)
			printTable(out, []column{labelColumn(1, "predictor", "%-12s"), colDemandT, colMeanT, colLambda, colL1, colWaste, colSpec, colPareto}, group)
		}
	}
	return nil
}

// runFleet plays the multiclient workload against an R-replica fleet
// behind a pluggable router, optionally under failure injection. A
// single -router and -replicas value prints the per-replica table; a
// comma list on either sweeps router × replicas.
func runFleet(out io.Writer, opt mcOptions, tr obs.Tracer) error {
	base, ns, kinds, ctls, preds, err := mcConfig(opt)
	if err != nil {
		return err
	}
	if len(ns) > 1 || len(kinds) > 1 || len(ctls) > 1 || len(preds) > 1 {
		return fmt.Errorf("fleet mode sweeps -router and -replicas only: give single -clients/-discipline/-controller/-predictor values")
	}
	routers, err := parseRouters(opt.router)
	if err != nil {
		return err
	}
	replicas, err := parseReplicas(opt.replicas)
	if err != nil {
		return err
	}
	base.Clients = ns[0]
	cfg := prefetch.FleetConfig{
		Base:         base,
		Replicas:     replicas[0],
		Router:       routers[0],
		FailEvery:    opt.failEvery,
		RecoverAfter: opt.recoverAfter,
	}
	failNote := ""
	if opt.failEvery > 0 {
		failNote = fmt.Sprintf(", fail every %g, recover after %g", opt.failEvery, opt.recoverAfter)
	}

	if len(routers) > 1 || len(replicas) > 1 {
		if tr != nil {
			return fmt.Errorf("-trace-out/-metrics-out need a single run: drop the -router/-replicas lists")
		}
		return runFleetSweep(out, cfg, routers, replicas, opt.reps, failNote)
	}

	cfg.Base.Tracer = tr
	res, err := prefetch.RunFleet(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet: %d replicas, router %s, %d clients, server concurrency %d per replica, %d rounds each%s\n\n",
		res.Replicas, res.Router, res.Clients, res.Concurrency, cfg.Base.Rounds, failNote)
	fmt.Fprintf(out, "%-8s %9s %9s %10s %8s %6s %9s %6s %10s\n",
		"replica", "requests", "cachehit", "busy", "spec", "fails", "recovers", "lost", "downtime")
	for _, rr := range res.PerReplica {
		fmt.Fprintf(out, "%-8d %9d %9d %10.2f %8d %6d %9d %6d %10.2f\n",
			rr.Replica+1, rr.Requests, rr.CacheHits, rr.Busy, rr.SpecCompleted,
			rr.Failures, rr.Recoveries, rr.Lost, rr.Downtime)
	}
	fmt.Fprintf(out, "\ndemand access %.4f, mean access %.4f, queue wait %.4f\n",
		res.DemandAccess.Mean(), res.Access.Mean(), res.QueueWait.Mean())
	fmt.Fprintf(out, "fleet utilization %.1f%%", 100*res.Utilization())
	if cfg.Base.ServerCacheSlots > 0 {
		fmt.Fprintf(out, ", cache hit rate %.1f%%", 100*res.HitRate())
	}
	fmt.Fprintln(out)
	if opt.failEvery > 0 {
		fmt.Fprintf(out, "availability %.1f%%: %d failures, %d recoveries, %d demands re-routed, %d transfers lost, downtime %.2f\n",
			100*res.Availability(), res.Failures, res.Recoveries, res.ReRoutes, res.LostTransfers, res.Downtime)
	}
	return nil
}

// runFleetSweep prints the fleet's headline table: router kind ×
// replica count under the configured failure regime, router-major.
func runFleetSweep(out io.Writer, cfg prefetch.FleetConfig, routers []prefetch.FleetRouterKind, replicas []int, reps int, failNote string) error {
	replicaAxis, err := prefetch.FleetReplicasAxis(replicas)
	if err != nil {
		return err
	}
	points, err := prefetch.SweepFleet(cfg, reps, 0, prefetch.FleetRouterAxis(routers), replicaAxis)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet sweep, %d clients, discipline %s, server concurrency %d per replica, %d reps, %d rounds each%s\n\n",
		cfg.Base.Clients, cfg.Base.Sched.Kind, cfg.Base.ServerConcurrency, reps, cfg.Base.Rounds, failNote)
	printTable(out, fleetColumns, points)
	return nil
}
