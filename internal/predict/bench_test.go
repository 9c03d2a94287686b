package predict

import (
	"testing"

	"prefetch/internal/rng"
	"prefetch/internal/webgraph"
)

// benchPages is the page count of the site benchWalk browses.
const benchPages = 120

// benchWalk pre-draws a surfer walk over the default-sized site so the
// observe/predict benchmarks measure the sources, not the workload
// generator.
func benchWalk(b *testing.B) []int {
	b.Helper()
	r := rng.New(7)
	cfg := webgraph.SiteConfig{
		Pages: benchPages, MinLinks: 4, MaxLinks: 12, ZipfS: 1.1,
		MinSizeKB: 2, MaxSizeKB: 120, BandwidthKBps: 16, LatencyS: 0.3,
	}
	site, err := webgraph.Generate(r, cfg)
	if err != nil {
		b.Fatal(err)
	}
	surfer := webgraph.NewSurfer(r, site, 0.85)
	walk := make([]int, 4096)
	for i := range walk {
		walk[i] = surfer.Step()
	}
	return walk
}

// benchObserveNext is the shared hot loop: one Observe plus one NextInto
// a site-sized vector per browsing round over the pre-drawn walk.
func benchObserveNext(b *testing.B, src Source, walk []int) {
	out := make([]float64, benchPages)
	b.ResetTimer()
	var support int
	for i := 0; i < b.N; i++ {
		page := walk[i%len(walk)]
		src.Observe(page)
		support += src.NextInto(page, out)
	}
	supportSink = support
}

// supportSink keeps benchObserveNext's predictions live.
var supportSink int

// BenchmarkPredictorObserve measures the learned predictors' hot loop —
// one Observe plus one NextInto per browsing round — over a pre-drawn surfer
// walk. Tracked by the benchmark-regression gate (cmd/benchjson).
func BenchmarkPredictorObserve(b *testing.B) {
	walk := benchWalk(b)
	for _, kind := range []Kind{KindDepGraph, KindPPM, KindMixture, KindPPMEscape} {
		b.Run(string(kind), func(b *testing.B) {
			src, err := New(Config{Kind: kind}, 0, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			benchObserveNext(b, src, walk)
		})
	}
}

// BenchmarkPredictorObserveDecay measures the decayed-count source's hot
// loop (lazy per-state aging on Observe, ascending-id normalisation on
// NextInto) over the same walk. A top-level benchmark rather than a sub-run
// so the bench gate tracks it under its own name. Tracked by the
// benchmark-regression gate (cmd/benchjson).
func BenchmarkPredictorObserveDecay(b *testing.B) {
	walk := benchWalk(b)
	src, err := New(Config{Kind: KindDecay}, 0, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchObserveNext(b, src, walk)
}

// BenchmarkPlanL1 measures the plan-time prediction error the simulators
// record every learned round — the true next-page distribution of the
// default 120-page site plus the L1 distance of a trained ppm-escape
// prediction from it — in the map form (the map-era truth and L1 that
// dense_test.go keeps as references) and the dense form
// (NextDistributionInto + L1Dense), over pre-drawn (state, prediction)
// pairs, the dense form's predictions pre-drawn with NextInto. Tracked by the benchmark-regression gate
// (cmd/benchjson).
func BenchmarkPlanL1(b *testing.B) {
	r := rng.New(7)
	site, err := webgraph.Generate(r, webgraph.DefaultSiteConfig())
	if err != nil {
		b.Fatal(err)
	}
	surfer := webgraph.NewSurfer(r, site, 0.85)
	src, err := New(Config{Kind: KindPPMEscape}, 0, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 512
	states := make([]int, rounds)
	dists := make([]map[int]float64, rounds)
	dense := make([][]float64, rounds)
	for i := 0; i < 4096+rounds; i++ {
		if k := i - 4096; k >= 0 {
			states[k] = surfer.Current()
			dists[k] = src.Next(states[k])
			dense[k] = make([]float64, len(site.Pages))
			src.NextInto(states[k], dense[k])
		}
		src.Observe(surfer.Step())
	}
	b.Run("map", func(b *testing.B) {
		truth := newMapTruth(site, 0.85, surfer, nil)
		b.ReportAllocs()
		b.ResetTimer()
		var sum float64
		for i := 0; i < b.N; i++ {
			k := i % rounds
			sum += L1(dists[k], truth.Next(states[k]))
		}
		l1Sink = sum
	})
	b.Run("dense", func(b *testing.B) {
		truth := make([]float64, len(site.Pages))
		b.ReportAllocs()
		b.ResetTimer()
		var sum float64
		for i := 0; i < b.N; i++ {
			k := i % rounds
			surfer.NextDistributionInto(states[k], truth)
			sum += L1Dense(dense[k], truth)
		}
		l1Sink = sum
	})
}

// l1Sink keeps BenchmarkPlanL1's results live.
var l1Sink float64
