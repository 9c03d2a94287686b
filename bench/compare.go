package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ContractMetric is one metric entry of BENCHMARK.json. Bound, where
// present, is the share of the base median by which the metric may worsen
// before a change counts as a regression.
type ContractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Contract is the part of BENCHMARK.json the harness reads.
type Contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []ContractMetric `json:"end_to_end"`
	PerLayer []ContractMetric `json:"per_layer"`
}

// LoadContract reads BENCHMARK.json.
func LoadContract(path string) (*Contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// LoadReports reads the result files matching a glob pattern, in name
// order — the order their pairs were run in.
func LoadReports(pattern string) ([]*Report, error) {
	names, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	sort.Strings(names)
	out := make([]*Report, 0, len(names))
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var r Report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// Verdicts a comparison can reach.
const (
	Improved   = "improved"
	Regressed  = "regressed"
	Worse      = "worse" // a metric without a bound that lost by the gain rule
	Same       = "same"
	Unresolved = "unresolved"
)

// Judgement is the comparison of one (workload, metric) pair.
type Judgement struct {
	Workload, Metric string
	Pairs            int
	Base, Change     [3]float64 // q1, median, q3
	Wins, Losses     int        // pairs the change won and lost
	Verdict          string
	Why              string // reason for an unresolved verdict
}

// Judge compares paired runs of one metric. base[i] and change[i] form
// pair i. A gain needs at least 10 pairs, the change winning at least
// nine tenths of them (ties count for neither), and the medians differing
// by more than the base's interquartile range. With a bound (bound >= 0),
// a change whose median is worse than the base's by more than bound × the
// base median has regressed, and a base spread (IQR ÷ median) wider than
// the bound leaves the metric unresolved unless every change run beats
// every base run. Without a bound the gain rule is applied both ways.
func Judge(base, change []float64, lowerBetter bool, bound float64) Judgement {
	n := len(base)
	if len(change) < n {
		n = len(change)
	}
	j := Judgement{Pairs: n}
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	for i := 0; i < n; i++ {
		switch {
		case better(change[i], base[i]):
			j.Wins++
		case better(base[i], change[i]):
			j.Losses++
		}
	}
	b, c := sortedCopy(base[:n]), sortedCopy(change[:n])
	for i, q := range []float64{0.25, 0.5, 0.75} {
		j.Base[i], j.Change[i] = quantile(b, q), quantile(c, q)
	}
	if n < 10 {
		j.Verdict, j.Why = Unresolved, fmt.Sprintf("%d pairs, need 10", n)
		return j
	}
	iqr := j.Base[2] - j.Base[0]
	worseBy := j.Change[1] - j.Base[1] // > 0: the change is worse
	allBetter := better(c[n-1], b[0])  // the worst change run beats the best base run
	if !lowerBetter {
		worseBy = -worseBy
		allBetter = better(c[0], b[n-1])
	}
	switch {
	case j.Wins*10 >= 9*n && -worseBy > iqr:
		j.Verdict = Improved
	case bound < 0 && j.Losses*10 >= 9*n && worseBy > iqr:
		j.Verdict = Worse
	case bound < 0:
		j.Verdict = Same
	case j.Base[1] != 0 && iqr/abs(j.Base[1]) > bound && !allBetter:
		j.Verdict, j.Why = Unresolved, fmt.Sprintf("base spread %.3f exceeds bound %.3f", iqr/abs(j.Base[1]), bound)
	case j.Base[1] != 0 && worseBy/abs(j.Base[1]) > bound:
		j.Verdict = Regressed
	default:
		j.Verdict = Same
	}
	return j
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Compare pairs base and change results per workload and judges every
// metric the contract names. It refuses to pair results whose workload
// configuration hashes differ. The returned flags note changed output
// fingerprints and workloads present on one side only.
func Compare(base, change []*Report, c *Contract) ([]Judgement, []string, error) {
	byWorkload := func(rs []*Report) map[string][]*Report {
		m := map[string][]*Report{}
		for _, r := range rs {
			m[r.Manifest.Workload] = append(m[r.Manifest.Workload], r)
		}
		return m
	}
	bw, cw := byWorkload(base), byWorkload(change)
	var workloads []string
	for w := range bw {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)

	var (
		out   []Judgement
		flags []string
	)
	for w := range cw {
		if bw[w] == nil {
			flags = append(flags, fmt.Sprintf("%s: change results have no base", w))
		}
	}
	for _, w := range workloads {
		bs, cs := bw[w], cw[w]
		if len(cs) == 0 {
			flags = append(flags, fmt.Sprintf("%s: base results have no change", w))
			continue
		}
		hash := bs[0].Manifest.ConfigHash
		for _, r := range append(append([]*Report(nil), bs...), cs...) {
			if r.Manifest.ConfigHash != hash {
				return nil, nil, fmt.Errorf("%s: refusing to pair results with config hashes %s and %s", w, hash, r.Manifest.ConfigHash)
			}
		}
		for i := 0; i < len(bs) && i < len(cs); i++ {
			if bs[i].Fingerprint != cs[i].Fingerprint {
				flags = append(flags, fmt.Sprintf("%s pair %d: output fingerprint changed from %s to %s", w, i+1, bs[i].Fingerprint, cs[i].Fingerprint))
			}
		}
		for _, m := range append(append([]ContractMetric(nil), c.EndToEnd...), c.PerLayer...) {
			bv, ok1 := values(bs, m.Name)
			cv, ok2 := values(cs, m.Name)
			if !ok1 || !ok2 {
				continue
			}
			bound := -1.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			j := Judge(bv, cv, m.Better == "lower", bound)
			j.Workload, j.Metric = w, m.Name
			out = append(out, j)
		}
	}
	sort.Strings(flags)
	return out, flags, nil
}

// values collects one metric across results; false if any result lacks it.
func values(rs []*Report, name string) ([]float64, bool) {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		out = append(out, v.Value)
	}
	return out, true
}
