package bench

import (
	"regexp"
	"testing"

	"prefetch/internal/obs"
)

func smallRun(t *testing.T, workload string) *Report {
	t.Helper()
	rep, err := Run(Options{Workload: workload, Seed: 1, MinIters: 2, Layers: true, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted != 2 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d errors=%v", workload, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
	}
	return rep
}

// Every workload emits every metric BENCHMARK.json names, with its unit,
// and a fixed seed gives a fixed output fingerprint.
func TestSmokeEveryMetricStableFingerprint(t *testing.T) {
	c, err := LoadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		rep := smallRun(t, w.Name)
		for _, m := range append(append([]ContractMetric(nil), c.EndToEnd...), c.PerLayer...) {
			v, ok := rep.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s missing", w.Name, m.Name)
			} else if v.Unit != m.Unit {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, v.Unit, m.Unit)
			}
		}
		if again := smallRun(t, w.Name); again.Fingerprint != rep.Fingerprint {
			t.Errorf("%s: fingerprint %s then %s", w.Name, rep.Fingerprint, again.Fingerprint)
		}
	}
}

// BENCHMARK.json and the harness registry name the same metrics, with the
// same units and directions, in the same end-to-end/layer split.
func TestContractMatchesRegistry(t *testing.T) {
	c, err := LoadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(m ContractMetric, layer bool) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or duplicate metric name %q", m.Name)
		}
		seen[m.Name] = true
		r, ok := metricByName(m.Name)
		switch {
		case !ok:
			t.Errorf("%s is not in the harness registry", m.Name)
		case r.Unit != m.Unit || r.Better != m.Better || r.Layer != layer:
			t.Errorf("%s: registry %+v, BENCHMARK.json %+v (layer=%v)", m.Name, r, m, layer)
		}
		if !layer && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: end-to-end bound must be in (0, 0.25]", m.Name)
		}
	}
	for _, m := range c.EndToEnd {
		check(m, false)
	}
	for _, m := range c.PerLayer {
		check(m, true)
	}
	for _, m := range Metrics {
		if !seen[m.Name] {
			t.Errorf("registry metric %s is not in BENCHMARK.json", m.Name)
		}
	}
	var names []string
	for _, w := range c.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("bad workload name %q", w.Name)
		}
		names = append(names, w.Name)
	}
	for i, w := range Workloads() {
		if i >= len(names) || names[i] != w.Name {
			t.Fatalf("BENCHMARK.json workloads %v, harness has %s at %d", names, w.Name, i)
		}
	}
}

// Each replay makes exactly as many calls as the traced pass recorded
// events, and without replica failures the scheduler replay completes
// every traced transfer.
func TestReplaysMatchTrace(t *testing.T) {
	for _, w := range Workloads() {
		name := w.Name
		sp := w.Build(1, true)
		p, err := tracedPass(sp)
		if err != nil {
			t.Fatal(err)
		}
		counts := p.rec.counts
		sr, err := p.replaySched()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(sr.submitNs)) != counts[obs.KindEnqueue] || (sp.Fleet == nil && sr.completes != counts[obs.KindTransferDone]) {
			t.Errorf("%s: schedsrv replay %d submits, %d completions; trace has %d enqueues, %d transfer_done",
				name, len(sr.submitNs), sr.completes, counts[obs.KindEnqueue], counts[obs.KindTransferDone])
		}
		pr, err := p.replayPredict()
		if err != nil {
			t.Fatal(err)
		}
		if learned := sp.Base.Predict.Kind != ""; learned && int64(len(pr.nextNs)) != counts[obs.KindPredictNext] {
			t.Errorf("%s: predict replay %d Next calls, trace has %d", name, len(pr.nextNs), counts[obs.KindPredictNext])
		}
		n1, ns, err := p.replayCore()
		if err != nil {
			t.Fatal(err)
		}
		n2, _, err := p.replayCore()
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 || n1 == 0 || int64(len(ns)) != counts[obs.KindPredictNext] {
			t.Errorf("%s: core replay nodes %d then %d over %d solves; trace has %d plans", name, n1, n2, len(ns), counts[obs.KindPredictNext])
		}
		lambdaNs, err := p.replayAdaptive()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(lambdaNs)) != counts[obs.KindLambda] {
			t.Errorf("%s: adaptive replay %d updates, trace has %d", name, len(lambdaNs), counts[obs.KindLambda])
		}
	}
}
