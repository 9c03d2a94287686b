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
	"prefetch/internal/cache"
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
// page, on the default site and a 400-page one, at the default follow
// probability, another, and an invalid one that both default. Runs whose walkers cannot share a table get none.
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

// TestRankProbsMatchesSortSlice: ranking a dense distribution, as the
// shared oracle table does, gives exactly the order of a closure-based
// sort.Slice over its positive entries, on distributions dominated by
// probability ties (broken by page id), with zero, negative-zero and
// negative entries excluded. It covers the default 120-page site, a
// 1,000-page site and an all-equal vector.
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
		// Every page equally likely: pure id order.
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
}

// TestRankProbsZeroAlloc: ranking a table row into a warmed dst
// allocates nothing, at the default site's full support and at 1,000
// pages.
func TestRankProbsZeroAlloc(t *testing.T) {
	site := siteOf(t, 1000)
	r := rng.New(31)
	for _, support := range []int{120, 1000} {
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

// chooser returns a client whose plan keeps at most k of pages pages,
// with the pages in held held and those in pending in flight: held
// through a client cache when cached, else through this round's ready
// stamps.
func chooser(pages, k int, held, pending []int, cached bool) *client {
	c := &client{
		cfg:     &Config{MaxCandidates: k},
		eng:     &engine{},
		round:   1,
		ready:   make([]int, pages),
		pending: make([]int32, pages),
	}
	if cached {
		c.cache, _ = cache.New(len(held)) // fails only below 0 or above MaxInt32-1 slots
	}
	for _, page := range held {
		if cached {
			c.cache.InsertLRU(page, 1)
		} else {
			c.ready[page] = c.round
		}
	}
	for _, page := range pending {
		c.pending[page] = 1
	}
	return c
}

// checkChoose fails unless the scoring pass and the planner's selection
// match the reference: positives lists probs' positive pages in id order
// with predict.L1Dense(probs, truth)'s bits, and choose, over that row and
// over the ranked row rankProbs makes of it, keeps exactly sortSliceRank's
// order with held and pending pages filtered out, cut at k.
func checkChoose(t testing.TB, name string, probs, truth []float64, site *webgraph.Site, held, pending []int, k int, cached bool) {
	t.Helper()
	row, l1 := positives(nil, probs, truth, site)
	if wantL1 := predict.L1Dense(probs, truth); math.Float64bits(l1) != math.Float64bits(wantL1) {
		t.Fatalf("%s: fused L1 %v (%#x), L1Dense %v (%#x)", name, l1, math.Float64bits(l1), wantL1, math.Float64bits(wantL1))
	}
	var byID []core.Item
	for page, prob := range probs {
		if prob > 0 {
			byID = append(byID, core.Item{ID: page, Prob: prob, Retrieval: site.Pages[page].Retrieval})
		}
	}
	if !slices.Equal(row, byID) {
		t.Fatalf("%s: positives %v, want %v", name, row, byID)
	}
	skip := make([]bool, len(probs))
	for _, page := range append(slices.Clone(held), pending...) {
		skip[page] = true
	}
	var want []core.Item
	for _, it := range sortSliceRank(probs, site) {
		if len(want) < k && !skip[it.ID] {
			want = append(want, it)
		}
	}
	c := chooser(len(probs), k, held, pending, cached)
	if got := c.choose(row, false); !slices.Equal(got, want) {
		t.Fatalf("%s: k=%d cached=%t: chose %v from the id-ordered row, want %v", name, k, cached, got, want)
	}
	if got := c.choose(rankProbs(nil, probs, site), true); !slices.Equal(got, want) {
		t.Fatalf("%s: k=%d cached=%t: chose %v from the ranked row, want %v", name, k, cached, got, want)
	}
}

// TestChooseMatchesRankFilterCap: scoring a prediction lists its
// positives in id order with L1Dense's bits, and the planner's selection
// over that row, and over the same row ranked, equals rank → filter →
// cap, on tie-heavy vectors with subnormal and near-1 values at 120 and
// 1,000 pages, with random held and pending sets through the client
// cache and through the ready stamps, at caps of 1, 16 and at least the
// support, and on a truth that is the site's own next-page row; vectors
// of unequal length panic.
func TestChooseMatchesRankFilterCap(t *testing.T) {
	r := rng.New(37)
	draw := func(v []float64, n int) {
		clear(v)
		for ; n > 0; n-- {
			v[r.IntN(len(v))] = scoreLevels[r.IntN(len(scoreLevels))]
		}
	}
	pick := func(pages int) []int {
		ids := make([]int, r.IntN(pages))
		for i := range ids {
			ids[i] = r.IntN(pages)
		}
		return ids
	}
	for _, pages := range []int{120, 1000} {
		site := siteOf(t, pages)
		probs := make([]float64, pages)
		truth := make([]float64, pages)
		for iter := 0; iter < 600; iter++ {
			draw(probs, r.IntN(pages))
			if iter%2 == 0 {
				draw(truth, r.IntN(pages))
			} else {
				site.NextDistributionInto(r.IntN(pages), DefaultConfig().FollowProb, truth)
			}
			support := 0
			for _, p := range probs {
				if p > 0 {
					support++
				}
			}
			k := []int{1, 16, support + 1 + r.IntN(3)}[iter%3]
			checkChoose(t, fmt.Sprintf("pages=%d iter %d", pages, iter), probs, truth, site, pick(pages), pick(pages), k, iter%4 < 2)
		}
	}
	site := siteOf(t, 120)
	probs := make([]float64, len(site.Pages))
	for _, n := range []int{len(probs) - 1, len(probs) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("positives over lengths %d and %d did not panic", len(probs), n)
				}
			}()
			positives(nil, probs, make([]float64, n), site)
		}()
	}
}

// FuzzChoose: for any prediction and truth over scoreLevels, held and
// pending sets and cap, the scoring pass and the planner's selection
// equal the reference of checkChoose. The first byte picks a 120- or
// 1,000-page site, the client cache or the ready stamps, and a cap of 1,
// 16 or every page; each following 3-byte chunk writes one level into
// the prediction or the truth, or marks its page held or pending.
func FuzzChoose(f *testing.F) {
	r := rng.New(41)
	for _, head := range []byte{0, 2 + 4 + 1, 8} {
		seed := []byte{head}
		for i := 0; i < 150; i++ {
			seed = append(seed, 0, byte(r.IntN(256)), byte(r.IntN(256)))
		}
		f.Add(seed)
	}
	sites := map[int]*webgraph.Site{120: siteOf(f, 120), 1000: siteOf(f, 1000)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pages := 120
		if data[0]&1 != 0 {
			pages = 1000
		}
		k := []int{1, 16, pages}[int(data[0]>>2)%3]
		probs := make([]float64, pages)
		truth := make([]float64, pages)
		var held, pending []int
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			page := (int(b[0])<<8 | int(b[1])) % pages
			level := scoreLevels[int(b[2]>>2)%len(scoreLevels)]
			switch b[2] & 3 {
			case 0:
				probs[page] = level
			case 1:
				truth[page] = level
			case 2:
				held = append(held, page)
			case 3:
				pending = append(pending, page)
			}
		}
		checkChoose(t, "fuzz", probs, truth, sites[pages], held, pending, k, data[0]&2 != 0)
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

// BenchmarkRankProbs ranks full-support oracle rows, as the shared
// oracle table does once per page: the default site's 120 pages and a
// 1,000-page site, cycling through 16 rows of each.
func BenchmarkRankProbs(b *testing.B) {
	for _, pages := range []int{120, 1000} {
		b.Run(fmt.Sprintf("oracle-%d", pages), func(b *testing.B) {
			site := siteOf(b, pages)
			rows := make([][]float64, 16)
			for i := range rows {
				rows[i] = make([]float64, pages)
				site.NextDistributionInto(i, DefaultConfig().FollowProb, rows[i])
			}
			dst := rankProbs(nil, rows[0], site)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = rankProbs(dst, rows[i%len(rows)], site)
			}
		})
	}
}

// BenchmarkChoose times a learned round's candidate path, cycling
// through 16 rows recorded from a trained ppm-escape (ppmEscapeRows):
// the scoring pass over the prediction and its truth row, then the
// planner's selection of at most 16 candidates, the default cap, by a
// client whose 20-slot cache holds the pages demanded before the row.
func BenchmarkChoose(b *testing.B) {
	site, preds, truths, held := ppmEscapeRows(b)
	clients := make([]*client, len(preds))
	for i := range clients {
		clients[i] = chooser(len(site.Pages), DefaultConfig().MaxCandidates, held[i], nil, true)
	}
	b.Run("ppm-escape", func(b *testing.B) {
		row, _ := positives(nil, preds[0], truths[0], site)
		b.ReportAllocs()
		b.ResetTimer()
		var sum float64
		for i := 0; i < b.N; i++ {
			var l1 float64
			k := i % len(preds)
			row, l1 = positives(row, preds[k], truths[k], site)
			sum += l1 + float64(len(clients[k].choose(row, false)))
		}
		l1Sink = sum
	})
}

// l1Sink keeps BenchmarkChoose's scores live.
var l1Sink float64

// ppmEscapeRows records 16 (prediction, truth) row pairs of a learned
// step at the mc-learned shape: client 0's ppm-escape over its surfer on
// the default site, which drifts every 100 steps, sampled every 12 of
// the run's 200 rounds, so the rows span both phases and every stage of
// training. held[i] lists the last 20 distinct pages demanded before row
// i, what a 20-slot LRU client cache of demanded pages would hold.
func ppmEscapeRows(b *testing.B) (site *webgraph.Site, preds, truths [][]float64, held [][]int) {
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
	var recent []int // demanded pages, least recent first
	demand := func(page int) {
		recent = append(slices.DeleteFunc(recent, func(p int) bool { return p == page }), page)
		if len(recent) > cfg.ClientCacheSlots {
			recent = recent[1:]
		}
		src.Observe(page)
	}
	demand(surfer.Current())
	for step := 1; len(preds) < 16; step++ {
		if step%12 == 0 {
			pred := make([]float64, len(site.Pages))
			truth := make([]float64, len(site.Pages))
			src.NextInto(surfer.Current(), pred)
			surfer.NextDistributionInto(surfer.Current(), truth)
			preds, truths = append(preds, pred), append(truths, truth)
			held = append(held, slices.Clone(recent))
		}
		demand(surfer.Step())
	}
	return site, preds, truths, held
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
