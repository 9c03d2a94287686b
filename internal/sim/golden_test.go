package sim

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"prefetch/internal/access"
	"prefetch/internal/core"
	"prefetch/internal/obs"
	"prefetch/internal/rng"
	"prefetch/internal/workload"
)

// goldenPath holds one line per harness configuration: its name, the
// FNV-64a of its JSONL decision trace (the empty stream's hash when the
// harness takes no tracer) and the FNV-64a of its %+v result.
const goldenPath = "testdata/golden_fingerprints.txt"

// goldenCase is one harness configuration: run executes it with the given
// tracer and returns the value to fingerprint.
type goldenCase struct {
	name string
	run  func(tr obs.Tracer) (any, error)
}

// goldenTrace builds the small Markov walk the cache and session cases
// replay: enough requests to fill and evict, few enough that the depth-2
// planner stays fast.
func goldenTrace(seed uint64, requests int) (*MarkovTrace, error) {
	cfg := access.MarkovConfig{States: 40, MinOut: 5, MaxOut: 10, MinViewing: 1, MaxViewing: 30, SkewAlpha: 4}
	return BuildMarkovTrace(rng.New(seed), cfg, 1, 30, requests)
}

// goldenCases is the harness matrix. Prefetch-only: the Fig. 4/5 policies
// over two generators. Prefetch-cache: every Fig. 7 planner under both δ
// modes at two cache sizes. Sized cache: SKP and demand-only under both
// victim orders. Session: the plain, lookahead and depth-2 planners.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, gen := range []access.ProbGen{access.SkewyGen{}, access.FlatGen{}} {
		gen := gen
		cases = append(cases, goldenCase{
			name: "prefetch-only/" + gen.Name(),
			run: func(tr obs.Tracer) (any, error) {
				rounds, err := workload.Random(rng.New(5), workload.Fig45Config(10, gen), 300)
				if err != nil {
					return nil, err
				}
				pols := []Policy{
					NoPrefetch{}, PerfectPolicy{}, KPPolicy{},
					SKPPolicy{Mode: core.DeltaPaperTail}, SKPPolicy{Mode: core.DeltaTheorem3},
				}
				results, err := RunPrefetchOnly(rounds, pols, PrefetchOnlyOptions{ScatterLimit: 20, Tracer: tr})
				if err != nil {
					return nil, err
				}
				// ByViewing is a pointer; fingerprint the series it points to.
				var out []any
				for _, r := range results {
					out = append(out, r.Policy, r.Overall, *r.ByViewing, r.Scatter, r.Waste, r.Usage)
				}
				return out, nil
			},
		})
	}
	for _, mode := range []core.DeltaMode{core.DeltaTheorem3, core.DeltaPaperTail} {
		for _, size := range []int{5, 15} {
			for _, pl := range Fig7Planners(mode) {
				size, pl := size, pl
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("cache/%s/size=%d/%s", mode, size, pl.Label),
					run: func(tr obs.Tracer) (any, error) {
						trace, err := goldenTrace(7, 400)
						if err != nil {
							return nil, err
						}
						return RunPrefetchCache(trace, pl, size, CacheOptions{Tracer: tr})
					},
				})
			}
		}
	}
	for _, order := range []core.VictimOrder{core.ByDensity, core.ByValue} {
		for _, pl := range []CachePlanner{
			{Label: "demand", Solver: NoPrefetch{}, Sub: core.SubDS, Ordering: order},
			{Label: "skp", Solver: SKPPolicy{}, Sub: core.SubDS, Ordering: order},
		} {
			pl := pl
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("sized/%s/%s", order, pl.Label),
				run: func(tr obs.Tracer) (any, error) {
					trace, err := goldenTrace(9, 400)
					if err != nil {
						return nil, err
					}
					trace.Sizes = BuildSizes(rng.New(10), trace.Retrievals)
					return RunPrefetchCache(trace, pl, 150, CacheOptions{Tracer: tr})
				},
			})
		}
	}
	for _, pol := range []Policy{SKPPolicy{}, LookaheadPolicy{}, Depth2Policy{}} {
		for _, eff := range []bool{false, true} {
			pol, eff := pol, eff
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("session/%s/effective=%t", pol.Name(), eff),
				run: func(tr obs.Tracer) (any, error) {
					trace, err := goldenTrace(13, 150)
					if err != nil {
						return nil, err
					}
					return RunMarkovSession(trace, pol, SessionOptions{EffectiveViewing: eff, Tracer: tr})
				},
			})
		}
	}
	return cases
}

// fingerprint runs one case with a JSONL writer attached and returns the
// golden line for it.
func (gc goldenCase) fingerprint() (string, error) {
	th := fnv.New64a()
	w := obs.NewWriter(th)
	res, err := gc.run(w)
	if err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	rh := fnv.New64a()
	fmt.Fprintf(rh, "%+v", res)
	return fmt.Sprintf("%s %016x %016x", gc.name, th.Sum64(), rh.Sum64()), nil
}

// TestHarnessGoldenFingerprints replays the paper harnesses and compares
// each decision trace and result against fingerprints recorded in
// testdata. A mismatch prints the new line so an intentional change can be
// reviewed and recorded.
func TestHarnessGoldenFingerprints(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want[strings.Fields(line)[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Errorf("%s has %d fingerprints, the matrix has %d cases", goldenPath, len(want), len(cases))
	}
	for _, gc := range cases {
		got, err := gc.fingerprint()
		if err != nil {
			t.Errorf("%s: %v", gc.name, err)
			continue
		}
		if got != want[gc.name] {
			t.Errorf("fingerprint mismatch:\n got  %s\n want %s", got, want[gc.name])
		}
	}
}
