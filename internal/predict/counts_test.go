package predict

import (
	"fmt"
	"testing"

	"prefetch/internal/rng"
)

// bruteCounts rescans the raw observation stream for the successors of
// context ctx (oldest first): obs[i] counts whenever ctx ended right
// before it within the last order pages, which is when the context tree
// credited it.
func bruteCounts(obs, ctx []int) (next map[int]int64, total int64) {
	next = map[int]int64{}
	for i := len(ctx); i < len(obs); i++ {
		match := true
		for j := range ctx {
			if obs[i-len(ctx)+j] != ctx[j] {
				match = false
				break
			}
		}
		if match {
			next[obs[i]]++
			total++
		}
	}
	return next, total
}

// bruteContext applies the explicit-state rule to the raw stream: the
// last order pages when they end at state, otherwise state alone.
func bruteContext(obs []int, order, state int) []int {
	if n := len(obs); n > 0 && obs[n-1] == state {
		return obs[max(0, n-order):]
	}
	return []int{state}
}

// brutePPM is the longest seen context's normalised counts.
func brutePPM(obs []int, order, state int) map[int]float64 {
	h := bruteContext(obs, order, state)
	out := map[int]float64{}
	for k := len(h); k >= 1; k-- {
		next, total := bruteCounts(obs, h[len(h)-k:])
		if total == 0 {
			continue
		}
		for page, n := range next {
			out[page] = float64(n) / float64(total)
		}
		break
	}
	return out
}

// bruteEscape blends every seen context from the longest down with
// PPM-C escapes, then global frequencies.
func bruteEscape(obs []int, order, state int) map[int]float64 {
	h := bruteContext(obs, order, state)
	out := map[int]float64{}
	remain := 1.0
	for k := len(h); k >= 1; k-- {
		next, total := bruteCounts(obs, h[len(h)-k:])
		if total == 0 {
			continue
		}
		distinct := int64(len(next))
		escape := float64(distinct) / float64(total+distinct)
		w := remain * (1 - escape)
		for page, n := range next {
			out[page] += w * float64(n) / float64(total)
		}
		remain *= escape
	}
	freq, total := bruteCounts(obs, nil)
	for page, n := range freq {
		out[page] += remain * float64(n) / float64(total)
	}
	return out
}

// bruteFallback applies the cold-start mode to a brute prediction.
func bruteFallback(d map[int]float64, obs []int, mode Fallback) map[int]float64 {
	if len(d) > 0 || mode == FallbackNone {
		return d
	}
	seen, _ := bruteCounts(obs, nil)
	out := map[int]float64{}
	for page := range seen {
		out[page] = 1 / float64(len(seen))
	}
	return out
}

// TestContextTreeMatchesBruteForce: on seeded random walks, for orders
// 1–4 and both cold-start modes, PPM and the escape PPM must equal — with
// == on every value — predictions recomputed by rescanning the raw
// observation stream, queried at the last page and at an off-history
// state after every observation.
func TestContextTreeMatchesBruteForce(t *testing.T) {
	const pages, steps = 6, 240
	for order := 1; order <= 4; order++ {
		for _, mode := range []Fallback{FallbackNone, FallbackUniform} {
			t.Run(fmt.Sprintf("order%d-%s", order, mode), func(t *testing.T) {
				r := rng.New(uint64(100 + order))
				cfg := Config{Order: order, ColdStart: mode}
				cfg.Kind = KindPPM
				ppm, err := New(cfg, 0, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Kind = KindPPMEscape
				esc, err := New(cfg, 0, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				var obs []int
				for step := 0; step < steps; step++ {
					// A sticky walk so long contexts recur.
					page := r.IntN(pages)
					if step > 0 && r.Float64() < 0.5 {
						page = (obs[step-1] + 1) % pages
					}
					ppm.Observe(page)
					esc.Observe(page)
					obs = append(obs, page)
					// Page `pages` is never observed: an off-history
					// state with no context at all.
					for _, state := range []int{page, (page + 1 + r.IntN(pages)) % (pages + 1)} {
						want := bruteFallback(brutePPM(obs, order, state), obs, mode)
						assertSameDist(t, "ppm", step, state, ppm.Next(state), want)
						want = bruteFallback(bruteEscape(obs, order, state), obs, mode)
						assertSameDist(t, "ppm-escape", step, state, esc.Next(state), want)
					}
				}
			})
		}
	}
}

func assertSameDist(t *testing.T, name string, step, state int, got, want map[int]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s step %d Next(%d) = %v, brute force %v", name, step, state, got, want)
	}
	for page, p := range want {
		if q, ok := got[page]; !ok || q != p {
			t.Fatalf("%s step %d Next(%d)[%d] = %v, brute force %v", name, step, state, page, q, p)
		}
	}
}

// TestPopularityAcrossSmallPop: counts, first-seen order and the total
// stay exact as a store grows past smallPop and switches from scanning
// to its slot map, for pages observed and never observed.
func TestPopularityAcrossSmallPop(t *testing.T) {
	r := rng.New(3)
	var p popularity
	want := map[int]int64{}
	var order []int
	for step := 0; step < 400; step++ {
		page := r.IntN(3 * smallPop)
		if want[page] == 0 {
			order = append(order, page)
		}
		p.add(page)
		want[page]++
		if (p.slot != nil) != (len(order) > smallPop) {
			t.Fatalf("step %d: slot map present = %t with %d pages", step, p.slot != nil, len(order))
		}
		for q := -1; q <= 3*smallPop; q++ {
			if got := p.freq(q); got != want[q] {
				t.Fatalf("step %d: freq(%d) = %d, want %d", step, q, got, want[q])
			}
		}
		for i, e := range p.seen {
			if e.page != order[i] {
				t.Fatalf("step %d: seen[%d] is page %d, first-seen order has %d", step, i, e.page, order[i])
			}
		}
		if p.total != int64(step+1) {
			t.Fatalf("step %d: total %d", step, p.total)
		}
	}
}
