package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample mimics `go test -bench -benchmem -count=2` output across two
// packages, with noise lines, per-count variation (the parser keeps the
// min of every column independently), one line without -benchmem
// columns, and one with a b.ReportMetric column before them.
const sample = `goos: linux
goarch: amd64
pkg: prefetch/internal/eventq
cpu: Fake CPU @ 2.00GHz
BenchmarkEventQueue/64/heap-8         	    3521	    340123 ns/op	    2048 B/op	      12 allocs/op
BenchmarkEventQueue/64/heap-8         	    3600	    335000 ns/op	    2100 B/op	      14 allocs/op
BenchmarkEventQueue/16k/heap-8        	     804	   1490321 ns/op
PASS
ok  	prefetch/internal/eventq	2.153s
pkg: prefetch/internal/multiclient
BenchmarkMultiClientRound/N=64-8      	      52	  22512345 ns/op	 1048576 B/op	    4096 allocs/op
BenchmarkMultiClientRound/N=64-8      	      50	  23012345 ns/op	     35957 ns/client-round	 1048570 B/op	    4095 allocs/op
PASS
ok  	prefetch/internal/multiclient	3.001s
`

func fptr(v float64) *float64 { return &v }

func TestParseKeysAndMin(t *testing.T) {
	got, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Metrics{
		"prefetch/internal/eventq.BenchmarkEventQueue/64/heap":         {NsPerOp: 335000, BytesPerOp: fptr(2048), AllocsPerOp: fptr(12)},
		"prefetch/internal/eventq.BenchmarkEventQueue/16k/heap":        {NsPerOp: 1490321},
		"prefetch/internal/multiclient.BenchmarkMultiClientRound/N=64": {NsPerOp: 22512345, BytesPerOp: fptr(1048570), AllocsPerOp: fptr(4095)},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("missing %s", k)
			continue
		}
		if g.NsPerOp != w.NsPerOp {
			t.Errorf("%s ns/op = %v, want %v", k, g.NsPerOp, w.NsPerOp)
		}
		switch {
		case (g.AllocsPerOp == nil) != (w.AllocsPerOp == nil), (g.BytesPerOp == nil) != (w.BytesPerOp == nil):
			t.Errorf("%s memory-column presence = (%v, %v), want (%v, %v)", k, g.BytesPerOp, g.AllocsPerOp, w.BytesPerOp, w.AllocsPerOp)
		case g.AllocsPerOp != nil && (*g.AllocsPerOp != *w.AllocsPerOp || *g.BytesPerOp != *w.BytesPerOp):
			t.Errorf("%s memory = %v B/op %v allocs/op, want %v/%v", k, *g.BytesPerOp, *g.AllocsPerOp, *w.BytesPerOp, *w.AllocsPerOp)
		}
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok \tpkg\t0.1s\n")); err == nil {
		t.Error("empty benchmark output accepted")
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":        "BenchmarkFoo",
		"BenchmarkFoo/sub-16":   "BenchmarkFoo/sub",
		"BenchmarkFoo/n-2-4":    "BenchmarkFoo/n-2",
		"BenchmarkFoo/heap":     "BenchmarkFoo/heap",
		"BenchmarkFoo/size-big": "BenchmarkFoo/size-big",
		"BenchmarkFoo/N=4096-8": "BenchmarkFoo/N=4096",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// writeRecord writes a baseline file for the gate tests.
func writeRecord(t *testing.T, path string, benchmarks map[string]Metrics) {
	t.Helper()
	data, err := json.Marshal(Record{Go: "go1.21", Benchmarks: benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesRecord(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_abc.json")
	var sb strings.Builder
	if err := run([]string{"-out", out}, strings.NewReader(sample), &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 3 || rec.Go == "" {
		t.Errorf("record = %+v, want 3 benchmarks and a go version", rec)
	}
	if m := rec.Benchmarks["prefetch/internal/eventq.BenchmarkEventQueue/64/heap"]; m.AllocsPerOp == nil || *m.AllocsPerOp != 12 {
		t.Errorf("allocs/op did not round-trip: %+v", m)
	}
}

// TestGateTripsOnSlowdown is the satellite's acceptance check: a
// synthetic 2x slowdown of one tracked benchmark must fail the gate at
// the default 1.25x threshold.
func TestGateTripsOnSlowdown(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	writeRecord(t, base, map[string]Metrics{
		// Baseline at half the sampled ns/op = the sample is a 2x slowdown.
		"prefetch/internal/multiclient.BenchmarkMultiClientRound/N=64": {NsPerOp: 22512345.0 / 2},
		"prefetch/internal/eventq.BenchmarkEventQueue/64/heap":         {NsPerOp: 335000},
	})
	var sb strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(sample), &sb)
	if err == nil {
		t.Fatalf("2x slowdown passed the gate:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkMultiClientRound") {
		t.Errorf("gate error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Errorf("report does not flag the regression:\n%s", sb.String())
	}
}

// TestGateTripsOnAllocGrowth: a benchmark whose baseline records
// allocs/op must not allocate more than alloc-threshold x as much, even
// when its time is fine.
func TestGateTripsOnAllocGrowth(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	writeRecord(t, base, map[string]Metrics{
		// Time generous, allocations halved: the sample's 4095 allocs/op
		// is a 2x allocation regression.
		"prefetch/internal/multiclient.BenchmarkMultiClientRound/N=64": {
			NsPerOp: 30000000, AllocsPerOp: fptr(2048),
		},
	})
	var sb strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(sample), &sb)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("2x allocation growth passed the gate: %v\n%s", err, sb.String())
	}
}

// TestGateTripsWhenAllocFreeRegresses: a zero-allocs baseline means any
// allocation at all is a regression (ratio thresholds are meaningless
// against zero).
func TestGateTripsWhenAllocFreeRegresses(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	writeRecord(t, base, map[string]Metrics{
		"prefetch/internal/eventq.BenchmarkEventQueue/64/heap": {NsPerOp: 335000, AllocsPerOp: fptr(0)},
	})
	var sb strings.Builder
	if err := run([]string{"-baseline", base}, strings.NewReader(sample), &sb); err == nil {
		t.Fatalf("allocations against an alloc-free baseline passed the gate:\n%s", sb.String())
	}
}

// TestGateRequiresBenchmemWhenTracked: dropping -benchmem from a run
// must not silently disarm a tracked allocation gate.
func TestGateRequiresBenchmemWhenTracked(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	writeRecord(t, base, map[string]Metrics{
		// The 16k sample line has no memory columns.
		"prefetch/internal/eventq.BenchmarkEventQueue/16k/heap": {NsPerOp: 1490321, AllocsPerOp: fptr(100)},
	})
	var sb strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(sample), &sb)
	if err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Errorf("missing memory columns did not trip the tracked allocation gate: %v", err)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	writeRecord(t, base, map[string]Metrics{
		// Current is within 1.25x time (up to ~1.2x slower) and within
		// 1.10x allocations of these baselines.
		"prefetch/internal/multiclient.BenchmarkMultiClientRound/N=64": {NsPerOp: 22512345.0 / 1.2, AllocsPerOp: fptr(4000)},
		"prefetch/internal/eventq.BenchmarkEventQueue/64/heap":         {NsPerOp: 335000, AllocsPerOp: fptr(12)},
		"prefetch/internal/eventq.BenchmarkEventQueue/16k/heap":        {NsPerOp: 1600000}, // current is faster; no allocs tracked
	})
	var sb strings.Builder
	if err := run([]string{"-baseline", base}, strings.NewReader(sample), &sb); err != nil {
		t.Fatalf("within-threshold run failed the gate: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "all 3 tracked benchmarks within") {
		t.Errorf("missing pass summary:\n%s", sb.String())
	}
}

// TestGateAcceptsLegacyBaseline: the pre-memory-column record form — a
// bare ns/op number per benchmark — still loads and gates time.
func TestGateAcceptsLegacyBaseline(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	legacy := `{"go":"go1.21","note":"","benchmarks":{` +
		`"prefetch/internal/eventq.BenchmarkEventQueue/64/heap":335000,` +
		`"prefetch/internal/multiclient.BenchmarkMultiClientRound/N=64":11256172}}`
	if err := os.WriteFile(base, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(sample), &sb)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkMultiClientRound") {
		t.Errorf("legacy baseline did not gate time: %v", err)
	}
}

// TestGateTripsOnMissingBenchmark: renaming or deleting a tracked
// benchmark must fail rather than silently disarm its gate.
func TestGateTripsOnMissingBenchmark(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	writeRecord(t, base, map[string]Metrics{
		"prefetch/internal/schedsrv.BenchmarkSchedulerDequeue/fifo": {NsPerOp: 100000},
	})
	var sb strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(sample), &sb)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing tracked benchmark did not trip the gate: %v", err)
	}
}

// TestGateIgnoresUntrackedBenchmarks: new benchmarks absent from the
// baseline pass — they start being tracked at the next baseline refresh.
func TestGateIgnoresUntrackedBenchmarks(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	writeRecord(t, base, map[string]Metrics{
		"prefetch/internal/eventq.BenchmarkEventQueue/64/heap": {NsPerOp: 335000},
	})
	var sb strings.Builder
	if err := run([]string{"-baseline", base}, strings.NewReader(sample), &sb); err != nil {
		t.Errorf("untracked benchmarks tripped the gate: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},                          // nothing to do
		{"-threshold", "0.9"},       // gate below 1x
		{"-threshold", "NaN"},       // NaN threshold
		{"-alloc-threshold", "1.0"}, // alloc gate at 1x exactly
		{"-alloc-threshold", "NaN"}, // NaN alloc threshold
		{"-out", "x", "stray-arg"},  // positional args
		{"-baseline", "/nonexistent/BENCH_baseline.json"},
	} {
		var sb strings.Builder
		if err := run(args, strings.NewReader(sample), &sb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
