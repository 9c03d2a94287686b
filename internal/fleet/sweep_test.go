package fleet

import (
	"errors"
	"math"
	"reflect"
	"testing"
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

// TestSweepRoutersShape: router-major cells, one label per axis, every
// cell carrying reps worth of observations.
func TestSweepRoutersShape(t *testing.T) {
	cfg := sweepBase()
	routers := []Kind{KindRoundRobin, KindHash}
	replicas := []int{1, 2}
	pts, err := SweepRouters(cfg, routers, replicas, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
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
		wantRounds := int64(2 * cfg.Base.Clients * cfg.Base.Rounds)
		if p.Access.N() != wantRounds {
			t.Errorf("point %d has %d round observations, want %d", i, p.Access.N(), wantRounds)
		}
		if p.Availability.N() != 2 {
			t.Errorf("point %d has %d availability observations, want 2", i, p.Availability.N())
		}
		if p.Config.Router != Kind(p.Labels[0]) {
			t.Errorf("point %d config router %q != label %q", i, p.Config.Router, p.Labels[0])
		}
	}
}

// TestSweepDeterministicAcrossWorkers: worker count changes wall-clock
// only.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := sweepBase()
	routers := []Kind{KindLeastLoaded, KindHash}
	seq, err := SweepRouters(cfg, routers, []int{2}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepRouters(cfg, routers, []int{2}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sweep results differ between 1 and 8 workers")
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	cfg := sweepBase()
	if _, err := SweepRouters(cfg, nil, []int{2}, 1, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no routers: err = %v, want ErrBadConfig", err)
	}
	if _, err := SweepRouters(cfg, []Kind{KindHash}, nil, 1, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no replicas: err = %v, want ErrBadConfig", err)
	}
	if _, err := SweepRouters(cfg, []Kind{KindHash}, []int{0}, 1, 0); !errors.Is(err, ErrBadConfig) {
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
