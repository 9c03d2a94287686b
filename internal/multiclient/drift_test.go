package multiclient

import (
	"errors"
	"math"
	"testing"

	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/webgraph"
)

// driftTestConfig is testConfig with a non-stationary workload: the hot
// set re-draws every 20 rounds.
func driftTestConfig() Config {
	cfg := testConfig()
	cfg.DriftEvery = 20
	return cfg
}

func TestDriftValidation(t *testing.T) {
	cfg := testConfig()
	cfg.DriftEvery = -1
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative drift cadence: err = %v, want ErrBadConfig", err)
	}
	// Regression for the warm-cadence guard: a NaN MeanViewing slips past
	// ordered comparisons and would degenerate the warm cadence
	// (warmEvery = MeanViewing), so validation must reject it.
	cfg = testConfig()
	cfg.MeanViewing = math.NaN()
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NaN mean viewing: err = %v, want ErrBadConfig", err)
	}
	cfg = testConfig()
	cfg.ServerCacheSlots = 10
	cfg.ServerHitFactor = math.NaN()
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NaN hit factor: err = %v, want ErrBadConfig", err)
	}
}

// TestDriftReplayDeterminism: the drifting workload replays bit for bit
// under both the oracle and the drift-built decay predictor — drift
// draws are pure functions of (seed, client).
func TestDriftReplayDeterminism(t *testing.T) {
	for _, pc := range []predict.Config{
		{Kind: predict.KindOracle},
		{Kind: predict.KindDecay, HalfLife: 40},
		{Kind: predict.KindMixture},
		{Kind: predict.KindPPMEscape},
	} {
		t.Run(string(pc.Kind), func(t *testing.T) {
			cfg := driftTestConfig()
			cfg.Predict = pc
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Access.Mean() != b.Access.Mean() || a.Elapsed != b.Elapsed ||
				a.ServerBusy != b.ServerBusy || a.L1Error.Mean() != b.L1Error.Mean() ||
				a.PrefetchCompleted != b.PrefetchCompleted {
				t.Errorf("drift replay diverged: %s vs %s", summary(a), summary(b))
			}
			for i := range a.PerClient {
				pa, pb := a.PerClient[i], b.PerClient[i]
				if pa.Access.Mean() != pb.Access.Mean() || pa.L1Error.Mean() != pb.L1Error.Mean() {
					t.Errorf("client %d drift replay diverged", i)
				}
			}
		})
	}
}

// TestDriftWorkloadsStableAcrossN: drift draws come from derived
// per-label streams, so client i's drifting workload is identical no
// matter how many other clients run beside it.
func TestDriftWorkloadsStableAcrossN(t *testing.T) {
	cfg := driftTestConfig()
	cfg.DisablePrefetch = true
	cfg.Clients = 2
	small, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clients = 5
	big, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.PerClient {
		if small.PerClient[i].DemandFetches != big.PerClient[i].DemandFetches {
			t.Errorf("client %d demand fetches changed with N under drift: %d vs %d",
				i, small.PerClient[i].DemandFetches, big.PerClient[i].DemandFetches)
		}
	}
}

// TestDriftChangesWorkload: enabling drift actually changes the browsing
// workload (the hot set moves), and the oracle still finishes every
// round — the drifting scenario is wired end to end.
func TestDriftChangesWorkload(t *testing.T) {
	stat, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drift, err := Run(driftTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if drift.Access.N() != stat.Access.N() {
		t.Errorf("drift run finished %d rounds, stationary %d", drift.Access.N(), stat.Access.N())
	}
	if drift.Access.Mean() == stat.Access.Mean() && drift.Elapsed == stat.Elapsed {
		t.Error("drift run is bit-identical to the stationary run — the hot set never moved")
	}
}

// TestDriftRaisesLearnedError: a drifting hot set must cost a plain
// learned predictor prediction accuracy relative to the identical
// stationary workload, while the oracle (which reads the current phase)
// keeps reporting zero L1 error.
func TestDriftRaisesLearnedError(t *testing.T) {
	cfg := testConfig()
	cfg.Rounds = 160
	cfg.DriftEvery = 0
	cfg.Predict = predict.Config{Kind: predict.KindDepGraph}
	stat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DriftEvery = 25
	drift, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("depgraph L1: stationary %.3f, drifting %.3f", stat.L1Error.Mean(), drift.L1Error.Mean())
	if drift.L1Error.Mean() <= stat.L1Error.Mean() {
		t.Errorf("drift did not raise depgraph L1 error: %.3f vs %.3f",
			drift.L1Error.Mean(), stat.L1Error.Mean())
	}
	cfg.Predict = predict.Config{Kind: predict.KindOracle}
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.L1Error.Max() != 0 {
		t.Errorf("oracle L1 max = %v under drift, want 0 (oracle must stay exact across phases)",
			oracle.L1Error.Max())
	}
}

// TestWarmCadenceRespected: the warmer fires at most once per
// MeanViewing of simulated time, no matter how often round starts poke
// it — the regression guard for a degenerate warm-on-every-event cadence.
func TestWarmCadenceRespected(t *testing.T) {
	cfg := testConfig()
	cfg.ServerCacheSlots = 8
	cfg.Predict = predict.Config{Kind: predict.KindShared}
	cfg.WarmServerCache = true
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(0, &engine{cfg: &cfg, site: site})
	if err != nil {
		t.Fatal(err)
	}
	agg := srv.agg
	for i := 0; i < 50; i++ {
		agg.ObserveClient(0, i%10)
	}
	srv.maybeWarm(0)
	if srv.warmInserted == 0 {
		t.Fatal("first warm pass admitted nothing")
	}
	if srv.warmedAt != 0 {
		t.Fatalf("warmedAt = %v after pass at t=0", srv.warmedAt)
	}
	// Pokes inside the cadence window must not re-warm.
	for _, now := range []float64{0.1, cfg.MeanViewing / 2, cfg.MeanViewing - 1e-9} {
		srv.maybeWarm(now)
		if srv.warmedAt != 0 {
			t.Fatalf("warm pass re-fired at t=%v inside the %v cadence", now, cfg.MeanViewing)
		}
	}
	srv.maybeWarm(cfg.MeanViewing)
	if srv.warmedAt != cfg.MeanViewing {
		t.Fatalf("warm pass did not fire at the cadence boundary (warmedAt %v)", srv.warmedAt)
	}
}

// TestWarmRejectsUnvalidatedCadence: a config path handing the warmer a
// degenerate MeanViewing without validation is a simulator bug and must
// panic rather than silently warm on every event.
func TestWarmRejectsUnvalidatedCadence(t *testing.T) {
	cfg := testConfig()
	cfg.ServerCacheSlots = 8
	cfg.Predict = predict.Config{Kind: predict.KindShared}
	cfg.WarmServerCache = true
	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(0, &engine{cfg: &cfg, site: site})
	if err != nil {
		t.Fatal(err)
	}
	cfg.MeanViewing = 0
	defer func() {
		if recover() == nil {
			t.Error("enableWarming accepted a zero warm cadence")
		}
	}()
	srv.enableWarming()
}

// TestDriftSweepDeterministic: the predictor sweep over a drifting
// workload is deterministic across worker counts — the GOMAXPROCS gate
// for the new scenario class.
func TestDriftSweepDeterministic(t *testing.T) {
	cfg := driftTestConfig()
	cfg.Rounds = 40
	kinds := []predict.Kind{predict.KindOracle, predict.KindDepGraph, predict.KindDecay}
	sweepDeterministic(t, cfg, 2, true, PredictorAxis(kinds))
}

// BenchmarkMultiClientRoundDrift is the end-to-end hot path of the
// non-stationary scenario: drifting surfers planned over the decayed-
// count predictor. Tracked by the benchmark-regression gate
// (cmd/benchjson).
func BenchmarkMultiClientRoundDrift(b *testing.B) {
	cfg := testConfig()
	cfg.Clients = 8
	cfg.Rounds = 60
	cfg.DriftEvery = 15
	cfg.Predict = predict.Config{Kind: predict.KindDecay, HalfLife: 120}
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
