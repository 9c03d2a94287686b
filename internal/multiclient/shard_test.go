package multiclient

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// siteOf generates a site of the given page count with the default
// link structure.
func siteOf(t testing.TB, pages int) *webgraph.Site {
	t.Helper()
	cfg := webgraph.DefaultSiteConfig()
	cfg.Pages = pages
	site, err := webgraph.Generate(rng.Derive(5, "site"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// TestTruthTableMatchesSurfer: every row of a run's truth table has, bit
// for bit, what the surfer's own NextDistributionInto reports for that
// page, on the default site and on one past the ranker's insertion
// cutoff, at the default follow probability, another, and an invalid one
// that both default. Runs whose walkers cannot share a table get none.
func TestTruthTableMatchesSurfer(t *testing.T) {
	for _, pages := range []int{120, 400} {
		site := siteOf(t, pages)
		want := make([]float64, pages)
		for _, follow := range []float64{0.85, 0.6, 0} {
			cfg := DefaultConfig()
			cfg.Predict = predict.Config{Kind: predict.KindPPMEscape}
			cfg.FollowProb = follow
			table := truthTable(&cfg, site)
			if len(table) != pages*pages {
				t.Fatalf("pages=%d follow=%v: table holds %d floats, want %d", pages, follow, len(table), pages*pages)
			}
			surfer := webgraph.NewSurfer(rng.New(1), site, follow)
			for p := range site.Pages {
				surfer.NextDistributionInto(p, want)
				for i, v := range table[p*pages : (p+1)*pages] {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Fatalf("pages=%d follow=%v: row %d page %d = %v, surfer %v", pages, follow, p, i, v, want[i])
					}
				}
			}
		}
	}
	site := siteOf(t, 40)
	for _, row := range []struct {
		name string
		edit func(*Config)
	}{
		{"oracle", func(c *Config) { c.Predict = predict.Config{} }},
		{"drift", func(c *Config) { c.DriftEvery = 7 }},
		{"no prefetch", func(c *Config) { c.DisablePrefetch = true }},
	} {
		cfg := DefaultConfig()
		cfg.Predict = predict.Config{Kind: predict.KindShared}
		row.edit(&cfg)
		if table := truthTable(&cfg, site); table != nil {
			t.Errorf("%s: got a truth table of %d floats, want none", row.name, len(table))
		}
	}
}

// sortSliceRank is the reference ranking: the positive entries of probs
// through a closure-based sort.Slice, probability descending then page id.
func sortSliceRank(probs []float64, site *webgraph.Site) []core.Item {
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
	return want
}

// checkRank fails unless rankProbs orders probs exactly as sortSliceRank.
func checkRank(t *testing.T, name string, probs []float64, site *webgraph.Site) {
	t.Helper()
	want := sortSliceRank(probs, site)
	got := rankProbs(nil, probs, site)
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranked items, sort.Slice %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d = %+v, sort.Slice %+v", name, i, got[i], want[i])
		}
	}
}

// rankLevels are the probabilities the ranking tests draw from: ties
// dominate, and zero, negative zero and negative entries must be excluded.
var rankLevels = []float64{0, math.Copysign(0, -1), -0.25, 0.5, 0.25, 0.125, 1.0 / 3}

// TestRankProbsMatchesSortSlice: ranking a dense distribution, by
// insertion or past rankInsertMax by the fallback sort, gives exactly the
// order of a closure-based sort.Slice over its positive entries, on
// distributions dominated by probability ties (broken by page id), with
// zero, negative-zero and negative entries excluded. It covers the
// default 120-page site, a 1,000-page site, supports on both sides of
// the cutoff and an all-equal vector.
func TestRankProbsMatchesSortSlice(t *testing.T) {
	r := rng.New(29)
	for _, pages := range []int{120, 1000} {
		site := siteOf(t, pages)
		probs := make([]float64, pages)
		for iter := 0; iter < 300; iter++ {
			clear(probs)
			for n := r.IntN(pages); n > 0; n-- {
				probs[r.IntN(pages)] = rankLevels[r.IntN(len(rankLevels))]
			}
			checkRank(t, fmt.Sprintf("pages=%d iter %d", pages, iter), probs, site)
		}
		// Every page equally likely: pure id order, on either side of
		// the cutoff.
		for i := range probs {
			probs[i] = 1 / float64(pages)
		}
		got := rankProbs(nil, probs, site)
		for i := range got {
			if got[i].ID != i {
				t.Fatalf("pages=%d all-equal: rank %d is page %d", pages, i, got[i].ID)
			}
		}
		if len(got) != pages {
			t.Fatalf("pages=%d all-equal: %d ranked items", pages, len(got))
		}
	}
	// Supports of exactly cutoff-1, cutoff and cutoff+1, padded with
	// excluded entries.
	site := siteOf(t, 1000)
	probs := make([]float64, len(site.Pages))
	for _, support := range []int{rankInsertMax - 1, rankInsertMax, rankInsertMax + 1} {
		for iter := 0; iter < 50; iter++ {
			clear(probs)
			perm := r.Perm(len(probs))
			for _, page := range perm[:support] {
				probs[page] = rankLevels[3+r.IntN(len(rankLevels)-3)]
			}
			for _, page := range perm[support : support+50] {
				probs[page] = rankLevels[r.IntN(3)]
			}
			checkRank(t, fmt.Sprintf("support=%d iter %d", support, iter), probs, site)
		}
	}
}

// TestRankProbsZeroAlloc: ranking into a warmed dst allocates nothing,
// by insertion and by the fallback sort alike.
func TestRankProbsZeroAlloc(t *testing.T) {
	site := siteOf(t, 1000)
	r := rng.New(31)
	for _, support := range []int{25, rankInsertMax, rankInsertMax + 1, 1000} {
		probs := make([]float64, len(site.Pages))
		for _, page := range r.Perm(len(probs))[:support] {
			probs[page] = r.Float64() + 0.01
		}
		dst := rankProbs(nil, probs, site)
		if allocs := testing.AllocsPerRun(20, func() { dst = rankProbs(dst, probs, site) }); allocs != 0 {
			t.Errorf("support %d: %v allocs per rank, want 0", support, allocs)
		}
	}
}

// scoreLevels extend rankLevels with the values a fused score meets at
// the edges of float64: subnormals, the smallest normal and values just
// below 1, where a term's rounding shows in the sum's last ulp.
var scoreLevels = append(slices.Clone(rankLevels),
	math.SmallestNonzeroFloat64, 3*math.SmallestNonzeroFloat64, 0x1p-1022,
	math.Nextafter(1, 0), 1-0x1p-40, 1)

// checkScored fails unless rankScored returns rankProbs' ranked list and
// predict.L1Dense's sum, bit for bit.
func checkScored(t testing.TB, name string, probs, truth []float64, site *webgraph.Site) {
	t.Helper()
	want := rankProbs(nil, probs, site)
	wantL1 := predict.L1Dense(probs, truth)
	got, l1 := rankScored(nil, probs, truth, site)
	if math.Float64bits(l1) != math.Float64bits(wantL1) {
		t.Fatalf("%s: fused L1 %v (%#x), L1Dense %v (%#x)", name, l1, math.Float64bits(l1), wantL1, math.Float64bits(wantL1))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: fused ranking %v, rankProbs %v", name, got, want)
	}
}

// TestRankScoredMatchesTwoPasses: the fused pass ranks and scores exactly
// as rankProbs followed by predict.L1Dense, on tie-heavy vectors with
// subnormal and near-1 values at 120 and 1,000 pages, at supports on
// both sides of rankInsertMax, and on a truth that is the site's own
// next-page row; vectors of unequal length panic.
func TestRankScoredMatchesTwoPasses(t *testing.T) {
	r := rng.New(37)
	draw := func(v []float64, n int) {
		clear(v)
		for ; n > 0; n-- {
			v[r.IntN(len(v))] = scoreLevels[r.IntN(len(scoreLevels))]
		}
	}
	for _, pages := range []int{120, 1000} {
		site := siteOf(t, pages)
		probs := make([]float64, pages)
		truth := make([]float64, pages)
		for iter := 0; iter < 300; iter++ {
			draw(probs, r.IntN(pages))
			if iter%2 == 0 {
				draw(truth, r.IntN(pages))
			} else {
				site.NextDistributionInto(r.IntN(pages), DefaultConfig().FollowProb, truth)
			}
			checkScored(t, fmt.Sprintf("pages=%d iter %d", pages, iter), probs, truth, site)
		}
	}
	site := siteOf(t, 1000)
	probs := make([]float64, len(site.Pages))
	truth := make([]float64, len(site.Pages))
	for _, support := range []int{rankInsertMax - 1, rankInsertMax, rankInsertMax + 1} {
		for iter := 0; iter < 50; iter++ {
			clear(probs)
			perm := r.Perm(len(probs))
			for _, page := range perm[:support] {
				probs[page] = scoreLevels[3+r.IntN(len(scoreLevels)-3)]
			}
			for _, page := range perm[support : support+50] {
				probs[page] = scoreLevels[r.IntN(3)]
			}
			draw(truth, support)
			checkScored(t, fmt.Sprintf("support=%d iter %d", support, iter), probs, truth, site)
		}
	}
	for _, n := range []int{len(probs) - 1, len(probs) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rankScored over lengths %d and %d did not panic", len(probs), n)
				}
			}()
			rankScored(nil, probs, make([]float64, n), site)
		}()
	}
}

// FuzzRankScored: for any pair of vectors over scoreLevels, the fused
// pass equals rankProbs and predict.L1Dense bit for bit. The first byte
// picks a 120- or 1,000-page site; every following 3-byte chunk writes
// one level into the prediction or the truth.
func FuzzRankScored(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{1, 0, 0, 7, 0, 0, 8, 0, 1, 9, 0, 1, 10})
	f.Add(bytes.Repeat([]byte{0, 3, 1, 6}, 200))
	sites := map[int]*webgraph.Site{120: siteOf(f, 120), 1000: siteOf(f, 1000)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pages := 120
		if data[0]&1 != 0 {
			pages = 1000
		}
		probs := make([]float64, pages)
		truth := make([]float64, pages)
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			page := (int(b[0])<<8 | int(b[1])) % pages
			v := probs
			if b[2]&1 != 0 {
				v = truth
			}
			v[page] = scoreLevels[int(b[2]>>1)%len(scoreLevels)]
		}
		checkScored(t, "fuzz", probs, truth, sites[pages])
	})
}

// learnedScriptConfig is prefetchbench's mc-learned shape: 64 clients ×
// 200 rounds on an escape-PPM predictor with drift every 100 rounds.
func learnedScriptConfig() Config {
	cfg := DefaultConfig()
	cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 64, 200, 16
	cfg.DriftEvery = 100
	cfg.Predict = predict.Config{Kind: predict.KindPPMEscape}
	cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
	cfg.Seed = 1
	return cfg
}

// TestScriptCandsCapped: every scripted candidate row is capped at its
// own length, so appending to one row copies it and never writes into
// the next row sharing its slab.
func TestScriptCandsCapped(t *testing.T) {
	cfg := learnedScriptConfig()
	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := GenerateScripts(cfg, site)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sc.PerClient {
		if len(s.Cands) != cfg.Rounds {
			t.Fatalf("client %d: %d candidate rows, want %d", i, len(s.Cands), cfg.Rounds)
		}
		for r, row := range s.Cands {
			if cap(row) != len(row) {
				t.Fatalf("client %d round %d: cap %d != len %d", i, r, cap(row), len(row))
			}
		}
		for r := 0; r+1 < len(s.Cands); r++ {
			next := slices.Clone(s.Cands[r+1])
			_ = append(s.Cands[r], core.Item{ID: -1, Prob: 1, Retrieval: 1})
			if !slices.Equal(s.Cands[r+1], next) {
				t.Fatalf("client %d: appending to round %d changed round %d", i, r, r+1)
			}
		}
	}
}

// BenchmarkRankProbs ranks dense distributions, cycling through 16 of
// them: learned-size supports of 25 uniform draws, the default site's
// full-support oracle rows (120 pages, by insertion), full-support rows
// of a 1,000-page site (the fallback sort), and rows recorded from a
// trained ppm-escape over a drifting surfer on the default site, whose
// probabilities tie the way a learned source's counts do. ppm-escape
// ranks with rankProbs; ppm-escape-scored runs the learned step's fused
// pass, rankScored against the truth row recorded with each prediction.
func BenchmarkRankProbs(b *testing.B) {
	for _, bc := range []struct {
		name           string
		pages, support int
	}{
		{"learned-25", 120, 25},
		{"oracle-120", 120, 120},
		{"oracle-1000", 1000, 1000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			site := siteOf(b, bc.pages)
			r := rng.New(3)
			rows := make([][]float64, 16)
			for i := range rows {
				rows[i] = make([]float64, bc.pages)
				if bc.support == bc.pages {
					site.NextDistributionInto(i, DefaultConfig().FollowProb, rows[i])
					continue
				}
				for _, page := range r.Perm(bc.pages)[:bc.support] {
					rows[i][page] = r.Float64()
				}
			}
			dst := rankProbs(nil, rows[0], site)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = rankProbs(dst, rows[i%len(rows)], site)
			}
		})
	}
	site, preds, truths := ppmEscapeRows(b)
	b.Run("ppm-escape", func(b *testing.B) {
		dst := rankProbs(nil, preds[0], site)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = rankProbs(dst, preds[i%len(preds)], site)
		}
	})
	b.Run("ppm-escape-scored", func(b *testing.B) {
		dst, _ := rankScored(nil, preds[0], truths[0], site)
		b.ReportAllocs()
		b.ResetTimer()
		var sum float64
		for i := 0; i < b.N; i++ {
			var l1 float64
			k := i % len(preds)
			dst, l1 = rankScored(dst, preds[k], truths[k], site)
			sum += l1
		}
		l1Sink = sum
	})
}

// l1Sink keeps BenchmarkRankProbs' scores live.
var l1Sink float64

// ppmEscapeRows records 16 (prediction, truth) row pairs of a learned
// step at the mc-learned shape: client 0's ppm-escape over its surfer on
// the default site, which drifts every 100 steps, sampled every 12 of
// the run's 200 rounds, so the rows span both phases and every stage of
// training.
func ppmEscapeRows(b *testing.B) (site *webgraph.Site, preds, truths [][]float64) {
	cfg := learnedScriptConfig()
	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		b.Fatal(err)
	}
	surfer := webgraph.NewSurfer(rng.Derive(cfg.Seed, clientLabel(0)), site, cfg.FollowProb)
	surfer.EnableDrift(rng.Derive(cfg.Seed, driftLabel(0)), cfg.DriftEvery)
	src, err := predict.New(cfg.Predict, 0, surfer, nil)
	if err != nil {
		b.Fatal(err)
	}
	src.Observe(surfer.Current())
	for step := 1; len(preds) < 16; step++ {
		if step%12 == 0 {
			pred := make([]float64, len(site.Pages))
			truth := make([]float64, len(site.Pages))
			src.NextInto(surfer.Current(), pred)
			surfer.NextDistributionInto(surfer.Current(), truth)
			preds, truths = append(preds, pred), append(truths, truth)
		}
		src.Observe(surfer.Step())
	}
	return site, preds, truths
}

// BenchmarkGenerateScripts runs Phase A alone at the mc-learned shape:
// every client's walker, prediction, ranking and script storage.
func BenchmarkGenerateScripts(b *testing.B) {
	cfg := learnedScriptConfig()
	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateScripts(cfg, site); err != nil {
			b.Fatal(err)
		}
	}
}
