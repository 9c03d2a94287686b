package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"prefetch/internal/access"
	"prefetch/internal/rng"
)

func TestRandomSourceShape(t *testing.T) {
	r := rng.New(91)
	cfg := Fig45Config(10, access.SkewyGen{})
	rounds, err := Random(r, cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	for k, rd := range rounds {
		if err := rd.Validate(); err != nil {
			t.Fatalf("round %d invalid: %v", k, err)
		}
		if len(rd.Probs) != 10 {
			t.Fatalf("n = %d", len(rd.Probs))
		}
		if rd.Viewing < 1 || rd.Viewing > 100 || rd.Viewing != math.Trunc(rd.Viewing) {
			t.Fatalf("viewing %v not an integer in [1,100]", rd.Viewing)
		}
		for _, ret := range rd.Retrievals {
			if ret < 1 || ret > 30 || ret != math.Trunc(ret) {
				t.Fatalf("retrieval %v not an integer in [1,30]", ret)
			}
		}
		var sum float64
		for _, p := range rd.Probs {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probs sum %v", sum)
		}
	}
	if len(rounds) != 500 {
		t.Fatalf("produced %d rounds, want 500", len(rounds))
	}
}

func TestRandomSourceRequestFollowsProbs(t *testing.T) {
	// With a very skewed generator the argmax item should be requested
	// much more often than 1/n.
	r := rng.New(92)
	cfg := Fig45Config(10, access.SkewyGen{Alpha: 30})
	rounds, err := Random(r, cfg, 4000)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, rd := range rounds {
		argmax, best := 0, rd.Probs[0]
		for i, p := range rd.Probs {
			if p > best {
				argmax, best = i, p
			}
		}
		if rd.Requested == argmax {
			hits++
		}
	}
	if frac := float64(hits) / float64(len(rounds)); frac < 0.5 {
		t.Fatalf("argmax requested only %.0f%% of the time; request not following probs", 100*frac)
	}
}

func TestConfigValidation(t *testing.T) {
	r := rng.New(93)
	bad := []PrefetchOnlyConfig{
		{N: 0, RMin: 1, RMax: 2, VMin: 1, VMax: 2, Gen: access.FlatGen{}},
		{N: 5, RMin: 0, RMax: 2, VMin: 1, VMax: 2, Gen: access.FlatGen{}},
		{N: 5, RMin: 3, RMax: 2, VMin: 1, VMax: 2, Gen: access.FlatGen{}},
		{N: 5, RMin: 1, RMax: 2, VMin: -1, VMax: 2, Gen: access.FlatGen{}},
		{N: 5, RMin: 1, RMax: 2, VMin: 3, VMax: 2, Gen: access.FlatGen{}},
		{N: 5, RMin: 1, RMax: 2, VMin: 1, VMax: 2, Gen: nil},
	}
	for i, cfg := range bad {
		if _, err := Random(r, cfg, 10); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Random(r, Fig45Config(10, access.FlatGen{}), -1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestRoundProblem(t *testing.T) {
	rd := Round{Viewing: 7, Probs: []float64{0.6, 0.4}, Retrievals: []float64{3, 9}, Requested: 1}
	p := rd.Problem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Viewing != 7 || len(p.Items) != 2 {
		t.Fatalf("problem = %+v", p)
	}
	if p.Items[1].ID != 1 || p.Items[1].Prob != 0.4 || p.Items[1].Retrieval != 9 {
		t.Fatalf("item mapping wrong: %+v", p.Items[1])
	}
}

func TestTraceRoundTrip(t *testing.T) {
	r := rng.New(94)
	rounds, err := Random(r, Fig45Config(5, access.FlatGen{}), 50)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rounds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rounds) {
		t.Fatalf("round-trip length %d != %d", len(back), len(rounds))
	}
	for i := range back {
		a, b := rounds[i], back[i]
		if a.Viewing != b.Viewing || a.Requested != b.Requested {
			t.Fatalf("round %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Probs {
			if a.Probs[j] != b.Probs[j] || a.Retrievals[j] != b.Retrievals[j] {
				t.Fatalf("round %d item %d differs", i, j)
			}
		}
	}
}

func TestReadTraceRejectsBadData(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid JSON, invalid round (requested out of range).
	bad := `{"v":5,"p":[1.0],"r":[2],"req":3}` + "\n"
	if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
		t.Fatal("invalid round accepted")
	}
}

// goodRoundLine is one valid round in trace form.
const goodRoundLine = `{"v":5,"p":[1],"r":[2],"req":0}`

// strictTraceCases are traces ReadTrace must reject, each with a fragment
// its error must name.
var strictTraceCases = []struct{ name, input, want string }{
	{"unknown field", goodRoundLine + "\n" + `{"v":5,"p":[1],"r":[2],"req":0,"bogus":1}` + "\n", "line 2"},
	{"truncated final line", goodRoundLine + "\n" + `{"v":5,"p":[1],"r":`, "truncated"},
	{"truncated mid-value", `{"v":5,"p":[1`, "line 1"},
	{"blank line", goodRoundLine + "\n\n" + goodRoundLine + "\n", "line 2"},
	{"trailing data", goodRoundLine + ` {"v":1}` + "\n", "line 1"},
	{"invalid round names line", goodRoundLine + "\n" + `{"v":5,"p":[1],"r":[2],"req":9}` + "\n", "line 2"},
}

// TestReadTraceStrictErrors pins the hardened error paths: truncated
// files and unknown fields must fail with the offending line number
// instead of silently replaying a damaged workload.
func TestReadTraceStrictErrors(t *testing.T) {
	for _, tc := range strictTraceCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	// A trace WriteTrace produced must still read back clean.
	rounds := []Round{{Viewing: 2, Probs: []float64{1}, Retrievals: []float64{3}, Requested: 0}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rounds); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err != nil {
		t.Fatalf("round-trip after hardening: %v", err)
	}
}

func TestWriteTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTrace(&buf, []Round{{Viewing: -1, Probs: []float64{1}, Retrievals: []float64{1}}})
	if err == nil {
		t.Fatal("invalid round written")
	}
}

func TestDeterministicAcrossSeeds(t *testing.T) {
	mk := func() []Round {
		r := rng.New(4242)
		rounds, err := Random(r, Fig45Config(8, access.SkewyGen{}), 30)
		if err != nil {
			t.Fatal(err)
		}
		return rounds
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Viewing != b[i].Viewing || a[i].Requested != b[i].Requested {
			t.Fatalf("same seed diverged at round %d", i)
		}
	}
}
