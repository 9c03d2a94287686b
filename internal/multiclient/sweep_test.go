package multiclient

import (
	"errors"
	"reflect"
	"testing"

	"prefetch/internal/schedsrv"
)

// sweepDeterministic runs the grid at two worker counts, fails unless the
// points agree exactly, and returns them.
func sweepDeterministic(t *testing.T, cfg Config, reps int, baseline bool, axes ...Axis) []Point {
	t.Helper()
	a, err := Sweep(cfg, reps, 0, baseline, axes...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(cfg, reps, 1, baseline, axes...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("sweep points differ across worker counts")
	}
	return a
}

func sweepTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Clients = 3
	cfg.Rounds = 12
	cfg.Seed = 11
	return cfg
}

// TestSweepDisciplineAxisKeepsPreemptRules: the discipline axis clears
// the preempt flag on non-priority disciplines — a priority+preempt base
// must not poison fifo cells.
func TestSweepDisciplineAxisKeepsPreemptRules(t *testing.T) {
	cfg := sweepTestConfig()
	cfg.Sched.Kind = schedsrv.KindPriority
	cfg.Sched.Preempt = true
	pts, err := Sweep(cfg, 1, 0, false, DisciplineAxis([]schedsrv.Kind{schedsrv.KindFIFO, schedsrv.KindPriority}))
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Config.Sched.Preempt {
		t.Error("fifo cell kept the preempt flag")
	}
	if !pts[1].Config.Sched.Preempt {
		t.Error("priority cell lost the preempt flag")
	}
}

// TestSweepRejectsBadInput: engine-level validation of reps, axes, the
// base config and every combined cell.
func TestSweepRejectsBadInput(t *testing.T) {
	cfg := sweepTestConfig()
	if _, err := Sweep(cfg, 0, 0, false); !errors.Is(err, ErrBadConfig) {
		t.Errorf("0 reps: err = %v, want ErrBadConfig", err)
	}
	if _, err := ClientsAxis([]int{2, 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("0 clients: err = %v, want ErrBadConfig", err)
	}
	bad := cfg
	bad.Clients = 0
	if _, err := Sweep(bad, 1, 0, false); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad base config: err = %v, want ErrBadConfig", err)
	}
	// A combination that only turns invalid once an axis applies.
	withPreempt := cfg
	withPreempt.Sched.Preempt = true
	withPreempt.Sched.Kind = schedsrv.KindPriority
	manual := Axis{Name: "discipline", Values: []AxisValue{{
		Label: "fifo",
		Apply: func(c *Config) { c.Sched.Kind = schedsrv.KindFIFO },
	}}}
	if _, err := Sweep(withPreempt, 1, 0, false, manual); !errors.Is(err, ErrBadConfig) {
		t.Errorf("invalid combo: err = %v, want ErrBadConfig", err)
	}
}
