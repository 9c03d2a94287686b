package multiclient

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/core"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/schedsrv"
	"prefetch/internal/webgraph"
)

// shardConfigs covers every scriptable planner/predictor/scheduler shape:
// the determinism contract is that scripting (and its shard count) never
// changes a byte of results or traces across all of them.
func shardConfigs() map[string]Config {
	base := DefaultConfig()
	base.Rounds = 40
	base.Clients = 6
	base.Seed = 42

	drift := base
	drift.DriftEvery = 7

	learned := base
	learned.Predict = predict.Config{Kind: predict.KindPPM, ColdStart: predict.FallbackUniform}

	mixture := base
	mixture.Predict = predict.Config{Kind: predict.KindMixture}
	mixture.DriftEvery = 5

	adaptiveCfg := base
	adaptiveCfg.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
	adaptiveCfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true,
		AdmitUtil: 0.8, AdmitWindow: 20}

	served := base
	served.ServerCacheSlots = 12
	served.ClientCacheSlots = 0

	baseline := base
	baseline.DisablePrefetch = true

	// The mc-learned benchmark's shape: ppm-escape under drift on a
	// preemptive priority server.
	escape := base
	escape.Predict = predict.Config{Kind: predict.KindPPMEscape}
	escape.DriftEvery = 10
	escape.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}

	return map[string]Config{
		"oracle":   base,
		"drift":    drift,
		"learned":  learned,
		"mixture":  mixture,
		"adaptive": adaptiveCfg,
		"srvcache": served,
		"baseline": baseline,
		"escape":   escape,
	}
}

// runTraced runs cfg with a JSON trace attached and returns the result
// plus the exact trace bytes.
func runTraced(t *testing.T, cfg Config) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	cfg.Tracer = w
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	return res, buf.Bytes()
}

// TestScriptedMatchesInline is the core equivalence gate of the sharded
// core: the Phase-A scripted client must replay a client stepping its
// walker live bit-for-bit — identical results AND byte-identical decision
// traces — for every scriptable configuration shape.
func TestScriptedMatchesInline(t *testing.T) {
	for name, cfg := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			if !Scriptable(cfg) {
				t.Fatalf("config unexpectedly not scriptable")
			}
			scripted, scriptedTrace := runTraced(t, cfg)
			scriptingDisabled = true
			inline, inlineTrace := runTraced(t, cfg)
			scriptingDisabled = false
			if !reflect.DeepEqual(scripted, inline) {
				t.Errorf("scripted result differs from inline:\nscripted: %+v\ninline:   %+v", scripted, inline)
			}
			if !bytes.Equal(scriptedTrace, inlineTrace) {
				t.Errorf("scripted trace differs from inline (%d vs %d bytes)",
					len(scriptedTrace), len(inlineTrace))
			}
		})
	}
}

// TestShardCountIndependence pins the tentpole contract: the shard count
// is a parallelism hint and nothing else. Results and traces must be
// byte-identical across shards ∈ {0 (auto), 1, 4, 16}.
func TestShardCountIndependence(t *testing.T) {
	for name, cfg := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Shards = 1
			want, wantTrace := runTraced(t, cfg)
			for _, shards := range []int{0, 4, 16} {
				cfg.Shards = shards
				got, gotTrace := runTraced(t, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d: result differs from shards=1", shards)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("shards=%d: trace differs from shards=1 (%d vs %d bytes)",
						shards, len(gotTrace), len(wantTrace))
				}
			}
		})
	}
}

// TestSharedPredictorStaysInline documents the one non-scriptable shape:
// the shared aggregate trains on the cross-client arrival order, which
// only the live event loop knows, so its clients step live walkers.
func TestSharedPredictorStaysInline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predict = predict.Config{Kind: predict.KindShared}
	if Scriptable(cfg) {
		t.Fatalf("shared-predictor config must not be scriptable")
	}
	cfg.Clients = 4
	cfg.Rounds = 20
	// Live walkers still honour shard-count independence trivially.
	cfg.Shards = 16
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRankProbsMatchesSortSlice: ranking a dense distribution through the
// persistent sorter gives exactly the order of a closure-based sort.Slice
// over its positive entries, on distributions dominated by probability
// ties (broken by page id), with zero and negative entries excluded.
func TestRankProbsMatchesSortSlice(t *testing.T) {
	site, err := webgraph.Generate(rng.Derive(5, "site"), webgraph.DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(29)
	levels := []float64{0, -0.25, 0.5, 0.25, 0.125, 1.0 / 3}
	var sorter core.ItemSorter
	probs := make([]float64, len(site.Pages))
	for iter := 0; iter < 300; iter++ {
		clear(probs)
		for n := r.IntN(len(site.Pages)); n > 0; n-- {
			probs[r.IntN(len(site.Pages))] = levels[r.IntN(len(levels))]
		}
		var want []core.Item
		for page, prob := range probs {
			if prob > 0 {
				want = append(want, core.Item{ID: page, Prob: prob, Retrieval: site.Pages[page].Retrieval})
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].Prob != want[b].Prob {
				return want[a].Prob > want[b].Prob
			}
			return want[a].ID < want[b].ID
		})
		got := rankProbs(nil, probs, site, &sorter)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d ranked items, sort.Slice %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: rank %d = %+v, sort.Slice %+v", iter, i, got[i], want[i])
			}
		}
	}
}
