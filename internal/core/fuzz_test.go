package core

import (
	"math"
	"testing"
)

// FuzzSolveSKPAgainstBrute decodes arbitrary bytes into a small SKP
// instance and cross-checks the branch-and-bound against exhaustive
// search, plus the Eq. 7 bound and plan feasibility. Run with
// `go test -fuzz=FuzzSolveSKPAgainstBrute ./internal/core`; the seed
// corpus below also runs under plain `go test`.
func FuzzSolveSKPAgainstBrute(f *testing.F) {
	f.Add([]byte{10, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 200, 199, 30, 1, 1, 30})
	f.Add([]byte{255, 255, 255, 255, 255, 255})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		// Byte 0: viewing time 0..100. Then pairs (probWeight, retrieval).
		viewing := float64(data[0]) * 100 / 255
		rest := data[1:]
		n := len(rest) / 2
		if n == 0 || n > 10 {
			return
		}
		var weightSum float64
		weights := make([]float64, n)
		retr := make([]float64, n)
		for i := 0; i < n; i++ {
			weights[i] = float64(rest[2*i]) + 0.5
			weightSum += weights[i]
			retr[i] = math.Floor(float64(rest[2*i+1]))/255*29 + 1
		}
		items := make([]Item, n)
		for i := 0; i < n; i++ {
			items[i] = Item{ID: i, Prob: weights[i] / weightSum, Retrieval: retr[i]}
		}
		p := Problem{Items: items, Viewing: viewing}
		if err := p.Validate(); err != nil {
			t.Fatalf("generated invalid problem: %v", err)
		}

		plan, _, err := SolveSKP(p)
		if err != nil {
			t.Fatalf("solver error: %v", err)
		}
		got, err := Gain(p, plan)
		if err != nil {
			t.Fatalf("solver returned infeasible plan %v: %v", plan, err)
		}
		_, want, err := SolveSKPBruteCanonical(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("B&B gain %v != brute %v (problem %+v)", got, want, p)
		}
		bound, err := UpperBound(p)
		if err != nil {
			t.Fatal(err)
		}
		if got > bound+1e-9 {
			t.Fatalf("gain %v exceeds Eq.7 bound %v", got, bound)
		}
		if got < -1e-12 {
			t.Fatalf("optimal gain %v negative (empty plan should dominate)", got)
		}
	})
}

// FuzzSolveSKPDepth2AgainstBrute decodes arbitrary bytes into a problem of
// at most 7 items with at most 4 successors of at most 4 items each, and
// checks that the Depth2Value of the depth-2 plan equals the exhaustive
// two-step optimum within 1e-9. Bytes past the end of the input read as 0.
func FuzzSolveSKPDepth2AgainstBrute(f *testing.F) {
	f.Add([]byte{0x1b, 40, 200, 10, 90, 30, 30, 5, 4, 20, 2, 255, 3, 1, 7})
	f.Add([]byte{0x9f, 12, 1, 1, 255, 30, 3, 3, 9, 12, 2, 0, 4})
	f.Add([]byte{0x27, 63, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{0x00, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// problem reads a viewing time and n (probWeight, retrieval)
		// pairs; a partial universe leaves a quarter of TotalProb = 1 off
		// the list.
		problem := func(n int, partial bool) Problem {
			q := Problem{Viewing: float64(next() % 64), Items: make([]Item, n)}
			var sum float64
			for i := range q.Items {
				q.Items[i] = Item{ID: i, Prob: float64(next()) + 0.5, Retrieval: float64(next()%30) + 1}
				sum += q.Items[i].Prob
			}
			if partial {
				sum *= 4.0 / 3
				q.TotalProb = 1
			}
			for i := range q.Items {
				q.Items[i].Prob /= sum
			}
			return q
		}
		// Header: item count, successor count, partial-universe flag.
		h := next()
		p := problem(int(h%8), h&0x80 != 0)
		succ := make([]WeightedProblem, (h/8)%5)
		for j := range succ {
			w := float64(next()%5) / 4
			m := next()
			succ[j] = WeightedProblem{Weight: w, Problem: problem(int(m%5), m&0x80 != 0)}
		}
		plan, _, err := SolveSKPDepth2(p, succ)
		if err != nil {
			t.Fatalf("generated invalid instance: %v", err)
		}
		got, err := Depth2Value(p, plan, succ)
		if err != nil {
			t.Fatalf("depth-2 plan %v invalid: %v", plan, err)
		}
		want, err := bruteDepth2(p, succ)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("depth-2 value %v != brute %v (problem %+v, successors %+v)", got, want, p, succ)
		}
	})
}

// FuzzSolveKPAgainstDP decodes arbitrary bytes into a KP instance with
// integer retrieval and viewing times and checks SolveKP against the exact
// dynamic program: the same value within 1e-9, and a plan that never
// stretches. Equal weight bytes give equal probabilities, so ties between
// optimal plans are common.
func FuzzSolveKPAgainstDP(f *testing.F) {
	f.Add([]byte{3, 1, 3, 1, 2, 1, 1})
	f.Add([]byte{50, 10, 7, 20, 12, 30, 19, 10, 7})
	f.Add([]byte{0, 5, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		// Byte 0: viewing time 0..63. Then pairs (probWeight, retrieval).
		viewing := float64(data[0] % 64)
		rest := data[1:]
		n := len(rest) / 2
		if n > 12 {
			return
		}
		var weightSum float64
		for i := 0; i < n; i++ {
			weightSum += float64(rest[2*i])
		}
		items := make([]Item, n)
		for i := range items {
			var prob float64
			if weightSum > 0 {
				prob = float64(rest[2*i]) / weightSum
			}
			items[i] = Item{ID: i, Prob: prob, Retrieval: float64(rest[2*i+1]%20 + 1)}
		}
		checkKPAgainstDP(t, Problem{Items: items, Viewing: viewing})
	})
}

// FuzzArbitrate checks the Figure-6 arbitration invariants on arbitrary
// candidate/cache configurations.
func FuzzArbitrate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		free := int(data[0] % 4)
		sub := SubArbitration(data[1] % 3)
		rest := data[2:]
		half := len(rest) / 2
		candBytes, cacheBytes := rest[:half], rest[half:]

		var cand Plan
		for i := 0; i+1 < len(candBytes) && i < 12; i += 2 {
			cand.Items = append(cand.Items, Item{
				ID:        1000 + i,
				Prob:      float64(candBytes[i]) / 255,
				Retrieval: float64(candBytes[i+1])/255*29 + 1,
			})
		}
		var cache []CacheEntry
		for i := 0; i+1 < len(cacheBytes) && i < 12; i += 2 {
			cache = append(cache, CacheEntry{
				ID:        i,
				Prob:      float64(cacheBytes[i]) / 255 / 2,
				Retrieval: float64(cacheBytes[i+1])/255*29 + 1,
				Freq:      int64(cacheBytes[i] % 16),
			})
		}
		res := Arbitrate(cand, cache, free, sub)
		if len(res.Victims) != res.Accepted.Len() {
			t.Fatal("victims/accepted length mismatch")
		}
		inCache := map[int]bool{}
		for _, e := range cache {
			inCache[e.ID] = true
		}
		seen := map[int]bool{}
		freeUsed := 0
		for i, it := range res.Accepted.Items {
			v := res.Victims[i]
			if v == NoVictim {
				freeUsed++
				continue
			}
			if !inCache[v] || seen[v] {
				t.Fatalf("bad victim %d", v)
			}
			seen[v] = true
			_ = it
		}
		if freeUsed > free {
			t.Fatalf("used %d free slots of %d", freeUsed, free)
		}
	})
}
