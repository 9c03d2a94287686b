package fleet

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"prefetch/internal/multiclient"
	"prefetch/internal/schedsrv"
	"prefetch/internal/stats"
	"prefetch/internal/sweep"
)

func sweepBase() Config {
	cfg := DefaultConfig()
	cfg.Base.Clients = 3
	cfg.Base.Rounds = 10
	cfg.Base.Seed = 11
	cfg.Replicas = 2
	cfg.FailEvery = 60
	cfg.RecoverAfter = 10
	return cfg
}

// routerSweep runs the router × replicas sweep, router-major.
func routerSweep(t *testing.T, cfg Config, routers []Kind, replicas []int, reps, workers int) []Point {
	t.Helper()
	repAxis, err := ReplicasAxis(replicas)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Sweep(cfg, reps, workers, RouterAxis(routers), repAxis)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestSweepRoutersShape: router-major cells, one label per axis, every
// cell carrying reps worth of observations, and both axes reaching the
// run.
func TestSweepRoutersShape(t *testing.T) {
	cfg := sweepBase()
	routers := []Kind{KindRoundRobin, KindHash}
	replicas := []int{1, 2}
	pts := routerSweep(t, cfg, routers, replicas, 2, 0)
	if len(pts) != len(routers)*len(replicas) {
		t.Fatalf("got %d points, want %d", len(pts), len(routers)*len(replicas))
	}
	wantLabels := [][]string{
		{"round-robin", "1"}, {"round-robin", "2"},
		{"hash", "1"}, {"hash", "2"},
	}
	for i, p := range pts {
		if !reflect.DeepEqual(p.Labels, wantLabels[i]) {
			t.Errorf("point %d labels = %v, want %v", i, p.Labels, wantLabels[i])
		}
		if p.Clients != cfg.Base.Clients || p.Reps != 2 {
			t.Errorf("point %d = (N=%d, reps=%d), want (%d, 2)", i, p.Clients, p.Reps, cfg.Base.Clients)
		}
		wantRounds := int64(2 * cfg.Base.Clients * cfg.Base.Rounds)
		if p.Access.N() != wantRounds {
			t.Errorf("point %d has %d round observations, want %d", i, p.Access.N(), wantRounds)
		}
		if p.Availability.N() != 2 {
			t.Errorf("point %d has %d availability observations, want 2", i, p.Availability.N())
		}
	}
	// One replica leaves the router nothing to choose; two let it
	// place requests differently.
	if !reflect.DeepEqual(pts[0].Access, pts[2].Access) {
		t.Error("one-replica cells differ between routers")
	}
	if reflect.DeepEqual(pts[1].Access, pts[3].Access) {
		t.Error("two-replica cells identical across routers: router axis did not reach the run")
	}
}

// TestSweepDeterministicAcrossWorkers: worker count changes wall-clock
// only.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := sweepBase()
	routers := []Kind{KindLeastLoaded, KindHash}
	seq := routerSweep(t, cfg, routers, []int{2}, 2, 1)
	par := routerSweep(t, cfg, routers, []int{2}, 2, 8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sweep results differ between 1 and 8 workers")
	}
}

// TestOneReplicaSweepMatchesMulticlient: a calm one-replica fleet sweep
// folds, under every router, into exactly the point of the
// single-server sweep — the sweep-level twin of
// TestSingleReplicaMatchesMulticlient.
func TestOneReplicaSweepMatchesMulticlient(t *testing.T) {
	cfg := sweepBase()
	cfg.FailEvery = 0
	const reps, workers = 2, 0
	want, err := multiclient.Sweep(cfg.Base, reps, workers, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 {
		t.Fatalf("multiclient sweep without axes gave %d points, want 1", len(want))
	}
	want[0].Labels = nil
	got := routerSweep(t, cfg, Kinds(), []int{1}, reps, workers)
	for i, p := range got {
		p.Labels = nil
		if !reflect.DeepEqual(p, want[0]) {
			t.Errorf("router %s: fleet point diverges from the single-server point:\n fleet:  %+v\n single: %+v",
				Kinds()[i], p, want[0])
		}
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	cfg := sweepBase()
	oneReplica, err := ReplicasAxis([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	noReplicas, err := ReplicasAxis(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(cfg, 1, 0, RouterAxis(nil), oneReplica); !errors.Is(err, sweep.ErrBadSweep) {
		t.Errorf("no routers: err = %v, want ErrBadSweep", err)
	}
	if _, err := Sweep(cfg, 1, 0, RouterAxis([]Kind{KindHash}), noReplicas); !errors.Is(err, sweep.ErrBadSweep) {
		t.Errorf("no replicas: err = %v, want ErrBadSweep", err)
	}
	if _, err := ReplicasAxis([]int{0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero replicas: err = %v, want ErrBadConfig", err)
	}
	if _, err := Sweep(cfg, 0, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero reps: err = %v, want ErrBadConfig", err)
	}
	bad := cfg
	bad.Base.Clients = 0
	if _, err := Sweep(bad, 1, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad base: err = %v, want ErrBadConfig", err)
	}
	if _, err := ReplicasAxis([]int{1, -2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad replicas axis: err = %v, want ErrBadConfig", err)
	}
	if _, err := FailEveryAxis([]float64{math.NaN()}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nan fail axis: err = %v, want ErrBadConfig", err)
	}
	if _, err := FailEveryAxis([]float64{40, math.Inf(1)}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("inf fail axis: err = %v, want ErrBadConfig", err)
	}
	// A combo invalid only after axes apply: router axis with an unknown
	// kind fails cell validation before anything runs.
	if _, err := Sweep(cfg, 1, 0, RouterAxis([]Kind{"teleport"})); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown router combo: err = %v, want ErrBadConfig", err)
	}
}

// TestPointAddFoldsEveryField: Add sums every counter of two churned
// fleet runs — one dropping and one deferring what admission control
// rejects — merges every pooled accumulator and adds one per-rep
// observation per run.
func TestPointAddFoldsEveryField(t *testing.T) {
	var runs [2]Result
	for i, deferRejected := range []bool{false, true} {
		cfg := churnConfig()
		cfg.Base.Sched.Kind = schedsrv.KindPriority
		cfg.Base.Sched.Preempt = true
		cfg.Base.Sched.AdmitUtil = 0.5
		cfg.Base.Sched.AdmitDefer = deferRejected
		var err error
		if runs[i], err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var p Point
	for i := range runs {
		p.Add(&runs[i])
	}
	a, b := &runs[0], &runs[1]
	issued := func(r *Result) (n int64) {
		for _, pc := range r.PerClient {
			n += pc.PrefetchIssued
		}
		return n
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Preemptions", p.Preemptions, a.Preemptions + b.Preemptions},
		{"PrefetchIssued", p.PrefetchIssued, issued(a) + issued(b)},
		{"PrefetchDropped", p.PrefetchDropped, a.PrefetchDropped + b.PrefetchDropped},
		{"PrefetchDeferred", p.PrefetchDeferred, a.PrefetchDeferred + b.PrefetchDeferred},
		{"PrefetchComplete", p.PrefetchComplete, a.PrefetchCompleted + b.PrefetchCompleted},
		{"PrefetchUseful", p.PrefetchUseful, a.PrefetchUseful + b.PrefetchUseful},
		{"WarmInserted", p.WarmInserted, a.WarmInserted + b.WarmInserted},
		{"WarmHits", p.WarmHits, a.WarmHits + b.WarmHits},
		{"Failures", p.Failures, a.Failures + b.Failures},
		{"Recoveries", p.Recoveries, a.Recoveries + b.Recoveries},
		{"ReRoutes", p.ReRoutes, a.ReRoutes + b.ReRoutes},
		{"LostTransfers", p.LostTransfers, a.LostTransfers + b.LostTransfers},
	} {
		if c.want == 0 {
			t.Errorf("%s: both runs count 0, so the fold is untested", c.name)
		}
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	for _, c := range []struct {
		name      string
		got, a, b *stats.Accumulator
	}{
		{"Access", &p.Access, &a.Access, &b.Access},
		{"DemandAccess", &p.DemandAccess, &a.DemandAccess, &b.DemandAccess},
		{"QueueWait", &p.QueueWait, &a.QueueWait, &b.QueueWait},
		{"Lambda", &p.Lambda, &a.Lambda, &b.Lambda},
		{"L1Error", &p.L1Error, &a.L1Error, &b.L1Error},
	} {
		want := *c.a
		want.Merge(c.b)
		if c.a.N() == 0 || !reflect.DeepEqual(*c.got, want) {
			t.Errorf("%s: got %d observations, want the %d + %d of the runs merged", c.name, c.got.N(), c.a.N(), c.b.N())
		}
	}
	for _, c := range []struct {
		name string
		got  *stats.Accumulator
		rep  func(Result) float64
	}{
		{"Utilization", &p.Utilization, Result.Utilization},
		{"Availability", &p.Availability, Result.Availability},
		{"SpecThroughput", &p.SpecThroughput, Result.SpecThroughput},
		{"HitRatio", &p.HitRatio, Result.HitRatio},
		{"WastedFraction", &p.WastedFraction, Result.WastedPrefetchFraction},
	} {
		var want stats.Accumulator
		want.Add(c.rep(*a))
		want.Add(c.rep(*b))
		if !reflect.DeepEqual(*c.got, want) {
			t.Errorf("%s: got %d per-rep observations (mean %v), want 2 (mean %v)", c.name, c.got.N(), c.got.Mean(), want.Mean())
		}
	}
	if p.Improvement.N() != 0 {
		t.Errorf("Improvement: %d observations without a baseline leg, want 0", p.Improvement.N())
	}
}
