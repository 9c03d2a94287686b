package bench

import (
	"math"
	"strings"
	"testing"
)

// series returns n values around center with a relative wiggle of spread,
// in a fixed interleaved order so pairs do not line up by rank.
func series(n int, center, spread float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center * (1 + spread*math.Sin(float64(7*i+3)))
	}
	return out
}

func TestJudge(t *testing.T) {
	base := series(10, 1.0, 0.01)
	cases := []struct {
		name   string
		change []float64
		lower  bool
		bound  float64
		want   string
	}{
		{"same code agrees", series(10, 1.0, 0.01), true, 0.05, Same},
		{"small slowdown within bound", series(10, 1.03, 0.01), true, 0.05, Same},
		{"slowdown beyond bound", series(10, 1.2, 0.01), true, 0.05, Regressed},
		{"throughput drop beyond bound", series(10, 0.8, 0.01), false, 0.05, Regressed},
		{"clear gain", series(10, 0.8, 0.01), true, 0.05, Improved},
		{"too few pairs", series(9, 0.8, 0.01), true, 0.05, Unresolved},
		{"no bound, clear loss", series(10, 1.2, 0.01), true, -1, Worse},
	}
	for _, c := range cases {
		if got := Judge(base, c.change, c.lower, c.bound); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (%s), want %s", c.name, got.Verdict, got.Why, c.want)
		}
	}

	// A base spread wider than the bound leaves an overlapping change
	// unresolved, but not one whose every run beats every base run.
	noisy := series(10, 1.0, 0.3)
	if got := Judge(noisy, series(10, 1.0, 0.3), true, 0.05); got.Verdict != Unresolved {
		t.Errorf("noisy base: verdict %s, want %s", got.Verdict, Unresolved)
	}
	if got := Judge(noisy, series(10, 0.5, 0.01), true, 0.05); got.Verdict != Improved {
		t.Errorf("noisy base, change better everywhere: verdict %s, want %s", got.Verdict, Improved)
	}
}

func report(workload, hash, fp string, v float64) *Report {
	return &Report{
		Manifest:    Manifest{Workload: workload, ConfigHash: hash},
		Fingerprint: fp,
		Metrics:     map[string]Value{"run_s_p50": {Value: v, Unit: "s"}},
	}
}

func TestCompareRefusesMismatchedConfigsAndFlagsOutputChanges(t *testing.T) {
	bound := 0.1
	c := &Contract{EndToEnd: []ContractMetric{{Name: "run_s_p50", Unit: "s", Better: "lower", Bound: &bound}}}
	var base, change []*Report
	for i, v := range series(10, 1, 0.01) {
		base = append(base, report("mc-wide", "h1", "f1", v))
		change = append(change, report("mc-wide", "h1", "f1", series(10, 1, 0.01)[(i+5)%10]))
	}
	js, flags, err := Compare(base, change, c)
	if err != nil || len(js) != 1 || js[0].Verdict != Same || len(flags) != 0 {
		t.Fatalf("identical sets: judgements %+v flags %v err %v", js, flags, err)
	}

	change[3] = report("mc-wide", "h1", "f2", 1)
	if _, flags, _ := Compare(base, change, c); len(flags) != 1 || !strings.Contains(flags[0], "fingerprint changed") {
		t.Errorf("changed output not flagged: %v", flags)
	}

	change[3] = report("mc-wide", "h2", "f1", 1)
	if _, _, err := Compare(base, change, c); err == nil {
		t.Error("paired results with different config hashes")
	}
}
