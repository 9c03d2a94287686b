package multiclient

import (
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/schedsrv"
	"prefetch/internal/webgraph"
)

// parityConfig is the contended simulator reduced to the paper's setting:
// one client alone on a one-slot FIFO server with no server cache, the
// oracle predictor planning at a static λ = 0, and a client cache larger
// than the site (slots > 0) or the per-round prefetch-only mode (slots 0).
func parityConfig(seed uint64, slots int) Config {
	cfg := DefaultConfig()
	cfg.Clients = 1
	cfg.Rounds = 300
	cfg.Seed = seed
	cfg.ServerConcurrency = 1
	cfg.ServerCacheSlots = 0
	cfg.ClientCacheSlots = slots
	cfg.Sched = schedsrv.Config{Kind: schedsrv.KindFIFO}
	cfg.Predict = predict.Config{Kind: predict.KindOracle}
	cfg.Adaptive = adaptive.Config{Kind: adaptive.KindStatic, Lambda0: 0}
	return cfg
}

// parityRound is one traced round of the single client.
type parityRound struct {
	viewing   float64
	plan      []netsim.Transfer
	requested int
	access    float64
}

// replayInSession runs cfg traced, replays every round's viewing time,
// issued plan and requested page into a netsim.Session, and returns the
// traced access and the session's access per round.
func replayInSession(t *testing.T, cfg Config, keep bool) (traced, session []float64) {
	t.Helper()
	var col obs.Collector
	cfg.Tracer = &col
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([]parityRound, cfg.Rounds)
	for _, ev := range col.Events {
		switch ev.Kind {
		case obs.KindRoundStart:
			rounds[ev.Round-1].viewing = ev.Viewing
		case obs.KindSpecIssue:
			r := &rounds[ev.Round-1]
			r.plan = append(r.plan, netsim.Transfer{ID: ev.Page, Duration: ev.Service})
		case obs.KindPredictObserve:
			rounds[ev.Round-1].requested = ev.Page
		case obs.KindRoundEnd:
			rounds[ev.Round-1].access = ev.Access
		}
	}
	s := netsim.NewSession(netsim.SessionOptions{KeepItems: keep})
	for i, r := range rounds {
		got, err := s.Round(r.plan, r.viewing, r.requested, site.Pages[r.requested].Retrieval)
		if err != nil {
			t.Fatalf("seed %d round %d: %v", cfg.Seed, i+1, err)
		}
		traced = append(traced, r.access)
		session = append(session, got)
	}
	return traced, session
}

// TestSingleClientMatchesSession is the paper-parity oracle at N = 1:
// with nothing to contend with and nothing evicted, every round of the
// contended simulator takes exactly the access time the paper's
// single-link session model gives the same viewing time, plan and request.
func TestSingleClientMatchesSession(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := parityConfig(seed, 1000)
		traced, session := replayInSession(t, cfg, true)
		hits := 0
		for i := range traced {
			if traced[i] != session[i] {
				t.Errorf("seed %d round %d: multiclient access %v, session %v", seed, i+1, traced[i], session[i])
			}
			if traced[i] == 0 {
				hits++
			}
		}
		// Both kinds of round must occur, or the comparison is vacuous.
		if hits == 0 || hits == len(traced) {
			t.Errorf("seed %d: %d of %d rounds were zero-wait hits", seed, hits, len(traced))
		}
	}
}

// TestPrefetchOnlyDivergesFromSession pins the one known difference of
// the ClientCacheSlots == 0 mode from a Session without KeepItems: a
// leftover prefetch completing during a later round is discarded even
// when that round requests its page, while the Session keeps it. So the
// first diverging round is always a Session hit that multiclient fetched.
func TestPrefetchOnlyDivergesFromSession(t *testing.T) {
	diverged := false
	for seed := uint64(1); seed <= 5; seed++ {
		traced, session := replayInSession(t, parityConfig(seed, 0), false)
		for i := range traced {
			if traced[i] == session[i] {
				continue
			}
			diverged = true
			t.Logf("seed %d: first divergence at round %d (multiclient %v, session %v)", seed, i+1, traced[i], session[i])
			if session[i] != 0 || traced[i] <= 0 {
				t.Errorf("seed %d round %d: first divergence multiclient %v, session %v; want a session hit multiclient fetched",
					seed, i+1, traced[i], session[i])
			}
			break
		}
	}
	if !diverged {
		t.Errorf("no divergence over seeds 1..5: the prefetch-only modes now agree; drop this test and the ROADMAP note")
	}
}
