package main

import (
	"math"
	"testing"

	"prefetch"
)

// The flag parsers must never panic, and whatever they accept must be in
// range. The seeds are the flag values main_test.go drives run() with.

func FuzzParseWeights(f *testing.F) {
	for _, s := range []string{"8:1", "4:1", "4", "0:1", "NaN:1", "inf:1", "1:-1", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		demand, spec, err := parseWeights(s)
		if err != nil {
			return
		}
		for _, w := range []float64{demand, spec} {
			if !(w > 0) || math.IsInf(w, 0) {
				t.Fatalf("parseWeights(%q) accepted weight %v (need finite > 0)", s, w)
			}
		}
	})
}

func FuzzParseCounts(f *testing.F) {
	for _, s := range []string{"2", "1,2", "2,3", "1,2,4", "zero", "", "0", "-3", " 4 , ,5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ns, err := parseCounts(s, "count")
		if err != nil {
			return
		}
		if len(ns) == 0 {
			t.Fatalf("parseCounts(%q) accepted an empty list", s)
		}
		for _, n := range ns {
			if n < 1 {
				t.Fatalf("parseCounts(%q) accepted count %d (need >= 1)", s, n)
			}
		}
	})
}

func FuzzParsePolicies(f *testing.F) {
	for _, s := range []string{"none,skp", "skp", "unknown", "none,perfect,kp,greedy,skp,skp-paper", "", ","} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		policies, err := parsePolicies(s)
		if err != nil {
			return
		}
		if len(policies) == 0 {
			t.Fatalf("parsePolicies(%q) accepted an empty list", s)
		}
		for _, p := range policies {
			if p == nil {
				t.Fatalf("parsePolicies(%q) returned a nil policy", s)
			}
		}
	})
}

// FuzzParseKinds drives the generic kind parser through parsePredictors.
func FuzzParseKinds(f *testing.F) {
	for _, s := range []string{"oracle", "depgraph", "ppm", "all", "oracle,depgraph", "oracle,depgraph,ppm", "lifo", "", " all "} {
		f.Add(s)
	}
	known := map[prefetch.PredictorKind]bool{}
	for _, k := range prefetch.PredictorKinds() {
		known[k] = true
	}
	f.Fuzz(func(t *testing.T, s string) {
		kinds, err := parsePredictors(s)
		if err != nil {
			return
		}
		if len(kinds) == 0 {
			t.Fatalf("parsePredictors(%q) accepted an empty list", s)
		}
		for _, k := range kinds {
			if !known[k] {
				t.Fatalf("parsePredictors(%q) accepted unknown kind %q", s, k)
			}
		}
	})
}
