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
	ax := DisciplineAxis([]schedsrv.Kind{schedsrv.KindFIFO, schedsrv.KindPriority})
	for i, wantPreempt := range []bool{false, true} {
		c := cfg
		ax.Values[i].Apply(&c)
		if c.Sched.Preempt != wantPreempt {
			t.Errorf("%s cell: preempt = %v, want %v", ax.Values[i].Label, c.Sched.Preempt, wantPreempt)
		}
	}
	if _, err := Sweep(cfg, 1, 0, false, ax); err != nil {
		t.Fatal(err)
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

// paretoGroup builds a group of sweep points with the given (demand
// latency, speculative throughput) pairs.
func paretoGroup(pairs ...[2]float64) []Point {
	group := make([]Point, len(pairs))
	for i, dp := range pairs {
		group[i].DemandAccess.Add(dp[0])
		group[i].SpecThroughput.Add(dp[1])
	}
	return group
}

// TestParetoFrontier pins the dominance logic on a hand-built group.
func TestParetoFrontier(t *testing.T) {
	got := ParetoFrontier(paretoGroup(
		[2]float64{1, 5},   // frontier: best latency
		[2]float64{2, 9},   // frontier: best throughput
		[2]float64{3, 7},   // dominated by (2,9)
		[2]float64{2, 9},   // duplicate of frontier point: also non-dominated
		[2]float64{1.5, 6}, // frontier: between (1,5) and (2,9)
	))
	want := []bool{true, true, false, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParetoFrontier = %v, want %v", got, want)
	}
}

// TestParetoFrontierDuplicates: cells with identical (demand latency,
// spec/s) are marked together — both dominated or both on the frontier —
// and the marking does not depend on slice order.
func TestParetoFrontierDuplicates(t *testing.T) {
	// Dominated duplicates: (3,7) twice, both strictly beaten by (2,9).
	if got := ParetoFrontier(paretoGroup([2]float64{3, 7}, [2]float64{2, 9}, [2]float64{3, 7})); got[0] || got[2] || !got[1] {
		t.Errorf("dominated duplicates marked inconsistently: %v", got)
	}
	// Frontier duplicates: (2,9) twice, nothing dominates them.
	if got := ParetoFrontier(paretoGroup([2]float64{2, 9}, [2]float64{3, 7}, [2]float64{2, 9})); !got[0] || !got[2] {
		t.Errorf("frontier duplicates marked inconsistently: %v", got)
	}
	// Order independence: every rotation of the group yields the same
	// flags for the same (demand, spec) values.
	base := [][2]float64{{1, 5}, {2, 9}, {3, 7}, {2, 9}, {1.5, 6}}
	marks := ParetoFrontier(paretoGroup(base...))
	want := map[[2]float64]bool{}
	for i, dp := range base {
		want[dp] = marks[i]
	}
	for rot := 1; rot < len(base); rot++ {
		rotated := append(append([][2]float64{}, base[rot:]...), base[:rot]...)
		for i, mark := range ParetoFrontier(paretoGroup(rotated...)) {
			if mark != want[rotated[i]] {
				t.Errorf("rotation %d point %d (%v): Pareto = %v, want %v", rot, i, rotated[i], mark, want[rotated[i]])
			}
		}
	}
}
