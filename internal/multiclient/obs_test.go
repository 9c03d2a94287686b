package multiclient

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/obs"
	"prefetch/internal/schedsrv"
)

// traceBytes runs cfg with a JSONL writer attached and returns the raw
// trace bytes.
func traceBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	cfg.Tracer = w
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossGOMAXPROCS is the CI determinism gate in
// miniature: the simulation runs on one goroutine against a simulated
// clock, so the emitted trace must be byte-identical no matter how many
// Ps the runtime schedules over.
func TestTraceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := testConfig()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := traceBytes(t, cfg)
	runtime.GOMAXPROCS(8)
	eight := traceBytes(t, cfg)
	if !bytes.Equal(one, eight) {
		t.Fatalf("trace differs across GOMAXPROCS: %d vs %d bytes", len(one), len(eight))
	}
	if len(one) == 0 {
		t.Fatal("empty trace")
	}
}

// TestTraceEventStream checks the emitted stream is well-formed and
// covers the instrumented layers, and that speculative accounting in
// the trace reconciles with the run's own counters.
func TestTraceEventStream(t *testing.T) {
	cfg := testConfig()
	c := &obs.Collector{}
	cfg.Tracer = c
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range c.Events {
		if err := ev.Validate(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	for _, k := range []obs.Kind{
		obs.KindRoundStart, obs.KindRoundEnd, obs.KindSpecIssue,
		obs.KindDemandIssue, obs.KindTransferDone, obs.KindEnqueue,
		obs.KindDequeue, obs.KindPredictNext,
	} {
		if len(c.ByKind(k)) == 0 {
			t.Errorf("no %s events", k)
		}
	}
	if got := len(c.ByKind(obs.KindRoundEnd)); got != cfg.Clients*cfg.Rounds {
		t.Errorf("round_end count %d, want %d", got, cfg.Clients*cfg.Rounds)
	}
	// Every completed speculative transfer resolves exactly once:
	// useful or wasted.
	var specDone int
	for _, ev := range c.ByKind(obs.KindTransferDone) {
		if !ev.Demand {
			specDone++
		}
	}
	useful := len(c.ByKind(obs.KindSpecUseful))
	wasted := len(c.ByKind(obs.KindSpecWasted))
	if useful+wasted != specDone {
		t.Errorf("spec resolution %d useful + %d wasted != %d completed", useful, wasted, specDone)
	}
	if int64(useful) != res.PrefetchUseful {
		t.Errorf("spec_useful %d != PrefetchUseful %d", useful, res.PrefetchUseful)
	}
	if int64(specDone) != res.PrefetchCompleted {
		t.Errorf("spec transfer_done %d != PrefetchCompleted %d", specDone, res.PrefetchCompleted)
	}
}

// TestTracerDoesNotPerturbRun proves instrumentation observes without
// interfering: results with a tracer attached are bit-identical to the
// untraced run, and a disabled tracer follows the identical code path
// as no tracer at all.
func TestTracerDoesNotPerturbRun(t *testing.T) {
	cfg := testConfig()
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = &obs.Collector{}
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracer changed the result:\n%+v\nvs\n%+v", plain, traced)
	}
	cfg.Tracer = obs.Nop{}
	nop, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, nop) {
		t.Fatalf("Nop tracer changed the result")
	}
}

// utilRecorder is the utilisation gate with a log: it decides as
// schedsrv.UtilizationGate does and records the bits of every estimate
// it is shown.
type utilRecorder struct {
	gate schedsrv.UtilizationGate
	seen []uint64
}

func (g *utilRecorder) Name() string { return g.gate.Name() }

func (g *utilRecorder) Admit(r schedsrv.Request, now, util float64) schedsrv.Decision {
	g.seen = append(g.seen, math.Float64bits(util))
	return g.gate.Admit(r, now, util)
}

// TestTracerDoesNotPerturbAdmission is TestTracerDoesNotPerturbRun where
// tracing adds reads: with a static controller an untraced client never
// takes a scheduler Snapshot, while a traced one takes one every round,
// between the admission gate's own estimates. The gate must see the
// same estimates, bit for bit, and the run must not change, in drop and
// defer mode over several seeds.
func TestTracerDoesNotPerturbAdmission(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, deferInstead := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/defer=%t", seed, deferInstead)
			cfg := testConfig()
			cfg.Seed = seed
			cfg.Adaptive = adaptive.Config{Kind: adaptive.KindStatic}
			cfg.Sched = schedsrv.Config{AdmitUtil: 0.5, AdmitDefer: deferInstead}
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := &obs.Collector{}
			cfg.Tracer = c
			traced, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("%s: tracer changed the result under admission", name)
			}
			if plain.PrefetchDropped+plain.PrefetchDeferred == 0 {
				t.Fatalf("%s: the gate never acted; the case tests nothing", name)
			}
			snaps := 0
			for _, ev := range c.Events {
				if ev.Kind == obs.KindQueueDepth {
					snaps++
				}
			}
			if snaps == 0 {
				t.Fatalf("%s: the traced run took no snapshot", name)
			}

			var seen [2][]uint64
			for i, tr := range []obs.Tracer{nil, &obs.Collector{}} {
				rec := &utilRecorder{gate: schedsrv.UtilizationGate{Threshold: 0.5, DeferInstead: deferInstead}}
				cfg.Sched = schedsrv.Config{Admission: rec}
				cfg.Tracer = tr
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				seen[i] = rec.seen
			}
			if len(seen[0]) == 0 || !reflect.DeepEqual(seen[0], seen[1]) {
				t.Errorf("%s: the gate saw %d estimates untraced and %d traced, or different bits",
					name, len(seen[0]), len(seen[1]))
			}
		}
	}
}

// TestChromeExportFromRun feeds a real run's trace through the Chrome
// exporter — every emitted event must convert.
func TestChromeExportFromRun(t *testing.T) {
	cfg := testConfig()
	c := &obs.Collector{}
	cfg.Tracer = c
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, c.Events); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// BenchmarkMultiClientRoundTracerOff is BenchmarkMultiClientRound with
// an explicitly disabled tracer threaded through the config — the
// zero-cost-when-disabled claim (ISSUE: <2% vs the untraced baseline).
// Tracked by the benchmark-regression gate (cmd/benchjson).
func BenchmarkMultiClientRoundTracerOff(b *testing.B) {
	cfg := testConfig()
	cfg.Clients = 8
	cfg.Rounds = 60
	cfg.Tracer = obs.Nop{}
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Access.N() != int64(cfg.Clients*cfg.Rounds) {
			b.Fatalf("short run: %d rounds", res.Access.N())
		}
	}
}

// BenchmarkMultiClientRoundTraced measures the same run streaming its
// full JSONL trace to a discarded writer — the cost of tracing when on.
// Tracked by the benchmark-regression gate (cmd/benchjson).
func BenchmarkMultiClientRoundTraced(b *testing.B) {
	cfg := testConfig()
	cfg.Clients = 8
	cfg.Rounds = 60
	for i := 0; i < b.N; i++ {
		cfg.Tracer = obs.NewWriter(io.Discard)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Access.N() != int64(cfg.Clients*cfg.Rounds) {
			b.Fatalf("short run: %d rounds", res.Access.N())
		}
	}
}
