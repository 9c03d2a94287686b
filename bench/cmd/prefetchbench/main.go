// Command prefetchbench runs one benchmark workload and prints every
// metric by name with its unit; the last line of standard output is a
// JSON object with keys correct, attempted, failed and metrics.
//
//	prefetchbench -workload mc-wide -seed 1 [-seconds 20] [-trace 1] [-out result.json]
//	prefetchbench compare -base 'a/*.json' -change 'b/*.json' [-contract BENCHMARK.json]
//
// -trace 1 adds the traced pass and the layer replays and reports the
// layer metrics instead of the end-to-end ones. Runs use one core
// (GOMAXPROCS=1); see README.md for why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"prefetch/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prefetchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "timed-phase budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced pass and layer metrics")
	out := fs.String("out", "", "also write the full result, with its manifest, to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds >= 0) {
		fmt.Fprintln(stderr, "prefetchbench: usage: -workload <name> -seed <n> [-seconds s] [-trace 0|1] [-out file]")
		return 2
	}
	runtime.GOMAXPROCS(1)
	rep, err := bench.Run(bench.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		MinIters: 2 * bench.SubSeeds,
		Layers:   *trace == 1,
	})
	if err != nil {
		fmt.Fprintln(stderr, "prefetchbench:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "prefetchbench:", err)
			return 1
		}
	}

	m := rep.Manifest
	fmt.Fprintf(stdout, "prefetchbench %s seed=%d config=%s n=%d timed iterations, GOMAXPROCS=%d of %d CPUs\n",
		m.Workload, m.Seed, m.ConfigHash, len(rep.RunSeconds), m.GOMAXPROCS, m.NumCPU)
	for _, e := range rep.Errors {
		fmt.Fprintln(stdout, "FAIL", e)
	}
	last := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]bench.Value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]bench.Value{}}
	for _, met := range bench.Metrics {
		v, ok := rep.Metrics[met.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", met.Name, v.Value, v.Unit)
		if met.Layer == (*trace == 1) {
			last.Metrics[met.Name] = v
		}
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "prefetchbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prefetchbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "glob of the base (parent) result files")
	change := fs.String("change", "", "glob of the change result files")
	contract := fs.String("contract", "BENCHMARK.json", "benchmark contract with metric directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *change == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "prefetchbench compare: usage: -base <glob> -change <glob> [-contract BENCHMARK.json]")
		return 2
	}
	c, err := bench.LoadContract(*contract)
	if err != nil {
		fmt.Fprintln(stderr, "prefetchbench compare:", err)
		return 2
	}
	bs, err := bench.LoadReports(*base)
	if err != nil {
		fmt.Fprintln(stderr, "prefetchbench compare:", err)
		return 2
	}
	cs, err := bench.LoadReports(*change)
	if err != nil {
		fmt.Fprintln(stderr, "prefetchbench compare:", err)
		return 2
	}
	js, flags, err := bench.Compare(bs, cs, c)
	if err != nil {
		fmt.Fprintln(stderr, "prefetchbench compare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-12s %-28s %5s %36s %36s %9s  %s\n", "workload", "metric", "pairs",
		"base p50 [q1, q3]", "change p50 [q1, q3]", "won/lost", "verdict")
	regressed := false
	for _, j := range js {
		verdict := j.Verdict
		if j.Why != "" {
			verdict += " (" + j.Why + ")"
		}
		regressed = regressed || j.Verdict == bench.Regressed
		fmt.Fprintf(stdout, "%-12s %-28s %5d %36s %36s %4d/%-4d  %s\n", j.Workload, j.Metric, j.Pairs,
			quartiles(j.Base), quartiles(j.Change), j.Wins, j.Losses, verdict)
	}
	if len(flags) > 0 {
		fmt.Fprintln(stdout, "flags:\n  "+strings.Join(flags, "\n  "))
	}
	if regressed {
		return 1
	}
	return 0
}

func quartiles(q [3]float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}
