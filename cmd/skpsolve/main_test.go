package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// docProblem is the input example of the package doc comment.
const docProblem = `{
  "viewing": 6,
  "items": [
    {"id": 1, "prob": 0.6, "retrieval": 4},
    {"id": 2, "prob": 0.3, "retrieval": 5},
    {"id": 3, "prob": 0.1, "retrieval": 2}
  ]
}`

func runSolve(t *testing.T, input string, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, strings.NewReader(input), &sb)
	return sb.String(), err
}

// TestRunAlgorithms solves the doc-comment problem with every -algo, in
// text and in JSON. The upper bound (Eq. 7) is 3 for every algorithm.
func TestRunAlgorithms(t *testing.T) {
	cases := []struct {
		args []string
		want jsonOutput // UpperBound is 3 throughout
	}{
		{[]string{"-algo", "skp"}, jsonOutput{Algorithm: "skp", PlanIDs: []int{1, 2}, Gain: 2.7, Stretch: 3, Waste: 5.1, Nodes: 4, Prunes: 2}},
		{[]string{"-algo", "skp-paper"}, jsonOutput{Algorithm: "skp-paper", PlanIDs: []int{1, 2}, Gain: 2.7, Stretch: 3, Waste: 5.1, Nodes: 4, Prunes: 2}},
		{[]string{"-algo", "kp"}, jsonOutput{Algorithm: "kp", PlanIDs: []int{1, 3}, Gain: 2.6, Waste: 3.4}},
		{[]string{"-algo", "greedy"}, jsonOutput{Algorithm: "greedy", PlanIDs: []int{1, 3}, Gain: 2.6, Waste: 3.4}},
		{[]string{"-algo", "exhaustive"}, jsonOutput{Algorithm: "exhaustive", PlanIDs: []int{1, 2}, Gain: 2.7, Stretch: 3, Waste: 5.1}},
		{[]string{"-algo", "costaware"}, jsonOutput{Algorithm: "costaware", PlanIDs: []int{1, 2}, Gain: 2.7, Stretch: 3, Waste: 5.1, Nodes: 4, Prunes: 2}},
		{[]string{"-algo", "costaware", "-lambda", "0.5"}, jsonOutput{Algorithm: "costaware", PlanIDs: []int{1}, Gain: 2.4, Waste: 1.6, Nodes: 3, Prunes: 2}},
		{[]string{"-algo", "stretchaware", "-stretchcost", "2"}, jsonOutput{Algorithm: "stretchaware", PlanIDs: []int{1, 3}, Gain: 2.6, Waste: 3.4, Nodes: 6, Prunes: 1}},
		// An infinite stretch price is KP's objective, so it is accepted.
		{[]string{"-algo", "stretchaware", "-stretchcost", "+Inf"}, jsonOutput{Algorithm: "stretchaware", PlanIDs: []int{1, 3}, Gain: 2.6, Waste: 3.4, Nodes: 6, Prunes: 1}},
		// Valid prices an algorithm does not read leave its plan alone.
		{[]string{"-algo", "skp", "-lambda", "0.5", "-stretchcost", "+Inf"}, jsonOutput{Algorithm: "skp", PlanIDs: []int{1, 2}, Gain: 2.7, Stretch: 3, Waste: 5.1, Nodes: 4, Prunes: 2}},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	for _, tc := range cases {
		want := tc.want
		want.UpperBound = 3

		out, err := runSolve(t, docProblem, append(tc.args, "-json")...)
		if err != nil {
			t.Fatalf("%v -json: %v", tc.args, err)
		}
		var got jsonOutput
		if err := json.Unmarshal([]byte(out), &got); err != nil {
			t.Fatalf("%v -json: %v\n%s", tc.args, err, out)
		}
		if got.Algorithm != want.Algorithm || !reflect.DeepEqual(got.PlanIDs, want.PlanIDs) ||
			got.Nodes != want.Nodes || got.Prunes != want.Prunes ||
			!near(got.Gain, want.Gain) || !near(got.Stretch, want.Stretch) ||
			!near(got.Waste, want.Waste) || !near(got.UpperBound, want.UpperBound) {
			t.Errorf("%v -json = %+v, want %+v", tc.args, got, want)
		}

		text, err := runSolve(t, docProblem, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		lines := []string{
			"algorithm:    " + want.Algorithm,
			fmt.Sprintf("plan:         %v", want.PlanIDs),
			"upper bound:  3 (Eq.7)",
		}
		for _, line := range lines {
			if !strings.Contains(text, line+"\n") {
				t.Errorf("%v: text output missing %q:\n%s", tc.args, line, text)
			}
		}
		if hasSearch := strings.Contains(text, "search:"); hasSearch != (want.Nodes > 0) {
			t.Errorf("%v: search line printed = %v, want %v:\n%s", tc.args, hasSearch, want.Nodes > 0, text)
		}
	}
}

func TestRunExplain(t *testing.T) {
	out, err := runSolve(t, docProblem, "-explain")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan of 2 item(s), viewing time 6", "(stretches)", "gain g (Eq. 3)    = 2.7"} {
		if !strings.Contains(out, want) {
			t.Errorf("-explain output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReadsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "problem.json")
	if err := os.WriteFile(path, []byte(docProblem), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := runSolve(t, "", "-f", path)
	if err != nil {
		t.Fatal(err)
	}
	fromStdin, err := runSolve(t, docProblem)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile != fromStdin {
		t.Errorf("-f output differs from stdin output:\n%s\nvs\n%s", fromFile, fromStdin)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		input string
		args  []string
	}{
		{docProblem, []string{"-algo", "costaware", "-lambda", "NaN"}},
		{docProblem, []string{"-algo", "costaware", "-lambda", "+Inf"}},
		{docProblem, []string{"-algo", "costaware", "-lambda", "-Inf"}},
		{docProblem, []string{"-algo", "stretchaware", "-stretchcost", "NaN"}},
		{docProblem, []string{"-algo", "stretchaware", "-stretchcost", "-Inf"}},
		// Both prices are checked under every algorithm, not only the one
		// that reads them.
		{docProblem, []string{"-algo", "skp", "-lambda", "NaN"}},
		{docProblem, []string{"-algo", "kp", "-lambda", "+Inf"}},
		{docProblem, []string{"-algo", "greedy", "-lambda", "-Inf"}},
		{docProblem, []string{"-algo", "stretchaware", "-lambda", "-0.5"}},
		{docProblem, []string{"-algo", "skp", "-stretchcost", "NaN"}},
		{docProblem, []string{"-algo", "exhaustive", "-stretchcost", "-Inf"}},
		{docProblem, []string{"-algo", "costaware", "-stretchcost", "-5"}},
		{docProblem, []string{"-algo", "skp-paper", "-lambda", "NaN", "-stretchcost", "-5"}},
		{docProblem, []string{"-algo", "nope"}},
		{docProblem, []string{"-not-a-flag"}},
		{`{"viewing": 6, "items": [], "extra": 1}`, nil},
		{`not json`, nil},
		{docProblem, []string{"-f", filepath.Join(t.TempDir(), "missing.json")}},
	}
	for _, tc := range cases {
		if out, err := runSolve(t, tc.input, tc.args...); err == nil {
			t.Errorf("run(%v) on %.20q accepted:\n%s", tc.args, tc.input, out)
		}
	}
}
