// Command figures regenerates every figure of the paper's evaluation plus
// this reproduction's ablation experiments, writing CSV, SVG and ASCII
// renderings along with a plain-text summary of the key numbers.
//
// Usage:
//
//	figures [-fig all|4|5|7|pruning|delta|lookahead|lambda|sizes] \
//	        [-out figures] [-seed 42] [-iters 50000] [-requests 50000] \
//	        [-cachestep 3] [-quick]
//
// All runs are deterministic in -seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"prefetch/internal/plot"
)

type config struct {
	out       string
	fig       string
	seed      uint64
	iters     int
	requests  int
	cacheStep int
	quick     bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// run parses args, regenerates the selected figures into the -out
// directory and prints the summary to stdout. Per-figure progress and
// timings go to stderr, so stdout is a pure function of the flags.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var cfg config
	fs.StringVar(&cfg.out, "out", "figures", "output directory")
	fs.StringVar(&cfg.fig, "fig", "all", "figure to regenerate: all|4|5|7|pruning|delta|lookahead|lambda|sizes")
	fs.Uint64Var(&cfg.seed, "seed", 42, "random seed")
	fs.IntVar(&cfg.iters, "iters", 50000, "iterations for the prefetch-only simulations (Figs 4, 5)")
	fs.IntVar(&cfg.requests, "requests", 50000, "requests per point for the prefetch-cache simulation (Fig 7)")
	fs.IntVar(&cfg.cacheStep, "cachestep", 3, "cache-size step for Fig 7 (1 reproduces all 100 points)")
	fs.BoolVar(&cfg.quick, "quick", false, "small, fast run (iters=5000, requests=4000, cachestep=10)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if cfg.quick {
		cfg.iters = 5000
		cfg.requests = 4000
		cfg.cacheStep = 10
	}

	type job struct {
		name string
		fn   func(config, *strings.Builder) error
	}
	jobs := []job{
		{"4", runFig4},
		{"5", runFig5},
		{"7", runFig7},
		{"pruning", runPruning},
		{"delta", runDelta},
		{"lookahead", runLookahead},
		{"lambda", runLambda},
		{"sizes", runSizes},
	}
	// Select before creating -out, so an unknown figure leaves no
	// directory behind.
	if cfg.fig != "all" {
		i := slices.IndexFunc(jobs, func(j job) bool { return j.name == cfg.fig })
		if i < 0 {
			return fmt.Errorf("unknown figure %q", cfg.fig)
		}
		jobs = jobs[i : i+1]
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	var summary strings.Builder
	fmt.Fprintf(&summary, "figures run: seed=%d iters=%d requests=%d cachestep=%d\n",
		cfg.seed, cfg.iters, cfg.requests, cfg.cacheStep)
	for _, j := range jobs {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== figure %s ==\n", j.name)
		if err := j.fn(cfg, &summary); err != nil {
			return fmt.Errorf("figure %s: %w", j.name, err)
		}
		fmt.Fprintf(os.Stderr, "   done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	path := filepath.Join(cfg.out, "summary.txt")
	if err := os.WriteFile(path, []byte(summary.String()), 0o644); err != nil {
		return err
	}
	_, err := io.WriteString(stdout, summary.String())
	return err
}

// saveChart writes a chart in all three formats under out/name.{csv,svg,txt}.
func saveChart(cfg config, name string, c *plot.Chart) error {
	csv, err := plot.CSV(c)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, name+".csv"), []byte(csv), 0o644); err != nil {
		return err
	}
	svg, err := plot.SVG(c, 640, 420)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, name+".svg"), []byte(svg), 0o644); err != nil {
		return err
	}
	ascii, err := plot.ASCII(c, 72, 20)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, name+".txt"), []byte(ascii), 0o644)
}
