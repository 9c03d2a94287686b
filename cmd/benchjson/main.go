// Command benchjson turns `go test -bench` output into a committed,
// diffable benchmark record and enforces a regression gate against it.
//
// It reads benchmark output on stdin, keys every result by
// "<package>.<benchmark>" (the -GOMAXPROCS suffix is stripped so records
// compare across machines), keeps the best value seen for each key —
// minimum ns/op, and when the run used -benchmem, minimum B/op and
// allocs/op too (run with -count > 1 so the minimum is meaningful) — and
// writes the result as JSON:
//
//	go test -run '^$' -bench 'EventQueue|SchedulerDequeue|MultiClientRound' \
//	    -benchmem -count 3 ./internal/... | benchjson -out BENCH_$(git rev-parse --short=12 HEAD).json
//
// With -baseline, every benchmark tracked by the baseline file must be
// present in the new record and must not be slower than threshold x its
// baseline ns/op — nor, when the baseline records allocations, allocate
// more than alloc-threshold x its baseline allocs/op — or benchjson
// exits non-zero listing the regressions: the CI gate that turns the
// repo's speed and allocation claims into enforced facts. A tracked
// benchmark that disappears also fails, so renaming a benchmark cannot
// silently disarm its gate. New benchmarks absent from the baseline pass
// (they start being tracked when the baseline is regenerated with
// `make bench-baseline`). Legacy baselines that recorded a bare ns/op
// number per benchmark still load; they simply gate time only.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Record is the JSON layout of a benchmark file.
type Record struct {
	Go         string             `json:"go"`   // toolchain that produced the record
	Note       string             `json:"note"` // free-form provenance note
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// Metrics is one benchmark's best observed measurements. The memory
// columns are pointers because absence is meaningful: a run without
// -benchmem records time only, and the allocation gate only arms for
// benchmarks whose baseline recorded them.
type Metrics struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// UnmarshalJSON also accepts the legacy bare-number form (ns/op only),
// so pre-existing baseline files keep gating time without regeneration.
func (m *Metrics) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] != '{' {
		return json.Unmarshal(data, &m.NsPerOp)
	}
	type metrics Metrics // shed the method to avoid recursion
	return json.Unmarshal(data, (*metrics)(m))
}

// benchLine matches one `go test -bench` result line, with the optional
// -benchmem columns. Columns from b.ReportMetric sit between ns/op and
// B/op and are skipped; their units never start with "B":
//
//	BenchmarkName/sub-8   	    1000	   123456 ns/op	  4.5 ns/item	  12 B/op	  3 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(?:\s+[0-9.e+-]+ [^\sB]\S*)*(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// pkgLine matches the package banner `go test` prints before results.
var pkgLine = regexp.MustCompile(`^pkg:\s+(\S+)`)

// stripProcs removes the trailing -GOMAXPROCS suffix from a benchmark
// name so records compare across machines with different core counts.
//
// Caveat: go only appends the suffix when GOMAXPROCS > 1, and a
// sub-benchmark whose own name ends in -<digits> is indistinguishable
// from a suffixed one, so such names key differently at GOMAXPROCS=1
// versus >1. Tracked benchmarks must therefore not end their names in
// -<digits> (none of this repo's do); prefer "/n2" over "/n-2".
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// minPtr folds a new observation into an optional running minimum.
func minPtr(prev *float64, v float64) *float64 {
	if prev == nil || v < *prev {
		return &v
	}
	return prev
}

// parse reads benchmark output into a name → best-metrics map.
func parse(in io.Reader) (map[string]Metrics, error) {
	out := map[string]Metrics{}
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			pkg = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		key := stripProcs(m[1])
		if pkg != "" {
			key = pkg + "." + key
		}
		cur, seen := out[key]
		if !seen || ns < cur.NsPerOp {
			cur.NsPerOp = ns
		}
		if m[4] != "" {
			// Each memory column keeps its own minimum: the best time and
			// the fewest allocations need not come from the same -count run.
			bytesOp, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %v", line, err)
			}
			allocsOp, err := strconv.ParseFloat(m[5], 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %v", line, err)
			}
			cur.BytesPerOp = minPtr(cur.BytesPerOp, bytesOp)
			cur.AllocsPerOp = minPtr(cur.AllocsPerOp, allocsOp)
		}
		out[key] = cur
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("no benchmark results on stdin (run go test -bench and pipe its output)")
	}
	return out, nil
}

// exceeds reports whether cur regresses past threshold x base, treating
// a zero baseline as "any growth regresses" (an alloc-free benchmark
// must stay alloc-free).
func exceeds(cur, base, threshold float64) bool {
	if base == 0 {
		return cur > 0
	}
	return cur/base > threshold
}

// compare gates current against the baseline record: every tracked
// benchmark must exist, stay within threshold x its baseline ns/op, and
// — when the baseline recorded allocations — within allocThreshold x
// its baseline allocs/op.
func compare(out io.Writer, baseline Record, current map[string]Metrics, threshold, allocThreshold float64) error {
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	fmt.Fprintf(out, "%-70s %12s %12s %8s %16s\n", "benchmark", "baseline", "current", "ratio", "allocs")
	for _, name := range names {
		base := baseline.Benchmarks[name]
		cur, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: tracked benchmark missing from this run", name))
			fmt.Fprintf(out, "%-70s %12.1f %12s %8s %16s\n", name, base.NsPerOp, "MISSING", "-", "-")
			continue
		}
		ratio := cur.NsPerOp / base.NsPerOp
		status := ""
		if base.NsPerOp > 0 && ratio > threshold {
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (%.2fx > %.2fx)",
				name, cur.NsPerOp, base.NsPerOp, ratio, threshold))
			status = "  REGRESSION"
		}
		allocs := "-"
		if base.AllocsPerOp != nil {
			switch {
			case cur.AllocsPerOp == nil:
				failures = append(failures, fmt.Sprintf("%s: baseline tracks allocs/op but this run lacks them (run with -benchmem)", name))
				allocs = "MISSING"
				if status == "" {
					status = "  REGRESSION"
				}
			case exceeds(*cur.AllocsPerOp, *base.AllocsPerOp, allocThreshold):
				failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (limit %.2fx)",
					name, *cur.AllocsPerOp, *base.AllocsPerOp, allocThreshold))
				allocs = fmt.Sprintf("%.0f vs %.0f", *cur.AllocsPerOp, *base.AllocsPerOp)
				if status == "" {
					status = "  REGRESSION"
				}
			default:
				allocs = fmt.Sprintf("%.0f vs %.0f", *cur.AllocsPerOp, *base.AllocsPerOp)
			}
		}
		fmt.Fprintf(out, "%-70s %12.1f %12.1f %7.2fx %16s%s\n", name, base.NsPerOp, cur.NsPerOp, ratio, allocs, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression gate tripped:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		outPath        = fs.String("out", "", "write the parsed benchmark record to this JSON file")
		basePath       = fs.String("baseline", "", "compare against this baseline record and fail on regression")
		threshold      = fs.Float64("threshold", 1.25, "regression gate: fail when current > threshold * baseline ns/op")
		allocThreshold = fs.Float64("alloc-threshold", 1.10, "allocation gate: fail when current > alloc-threshold * baseline allocs/op (benchmarks whose baseline records them)")
		note           = fs.String("note", "", "provenance note stored in the record")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v (benchmark output is read from stdin)", fs.Args())
	}
	if !(*threshold > 1) {
		return fmt.Errorf("-threshold %v must be > 1", *threshold)
	}
	if !(*allocThreshold > 1) {
		return fmt.Errorf("-alloc-threshold %v must be > 1", *allocThreshold)
	}
	if *outPath == "" && *basePath == "" {
		return errors.New("nothing to do: give -out and/or -baseline")
	}
	current, err := parse(in)
	if err != nil {
		return err
	}
	if *outPath != "" {
		rec := Record{Go: runtime.Version(), Note: *note, Benchmarks: current}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d benchmarks to %s\n", len(current), *outPath)
	}
	if *basePath != "" {
		data, err := os.ReadFile(*basePath)
		if err != nil {
			return err
		}
		var baseline Record
		if err := json.Unmarshal(data, &baseline); err != nil {
			return fmt.Errorf("parsing baseline %s: %v", *basePath, err)
		}
		if len(baseline.Benchmarks) == 0 {
			return fmt.Errorf("baseline %s tracks no benchmarks", *basePath)
		}
		if err := compare(out, baseline, current, *threshold, *allocThreshold); err != nil {
			return err
		}
		fmt.Fprintf(out, "all %d tracked benchmarks within %.2fx of baseline\n",
			len(baseline.Benchmarks), *threshold)
	}
	return nil
}
