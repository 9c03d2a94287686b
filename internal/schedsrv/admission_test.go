package schedsrv

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"prefetch/internal/netsim"
	"prefetch/internal/rng"
)

// scanWindow is utilWindow by brute force: it keeps every busy segment
// and sums each one's overlap with the window, oldest first, on every
// read. dead only skips segments that ended before a past transition's
// window, which add nothing to any later read.
type scanWindow struct {
	window float64
	conc   int
	segs   []utilSeg
	dead   int
	cur    int
	since  float64
}

func (w *scanWindow) transition(now float64, slots int) {
	if w.cur > 0 && now > w.since {
		w.segs = append(w.segs, utilSeg{from: w.since, to: now, slots: w.cur})
	}
	w.cur, w.since = slots, now
	for w.dead < len(w.segs) && w.segs[w.dead].to <= now-w.window {
		w.dead++
	}
}

func (w *scanWindow) estimate(now float64) float64 {
	span := min(w.window, now)
	if span <= 0 {
		return 0
	}
	lo := now - span
	var busy float64
	for _, s := range w.segs[w.dead:] {
		if from := max(s.from, lo); s.to > from {
			busy += float64(s.slots) * (s.to - from)
		}
	}
	if w.cur > 0 && now > w.since {
		busy += float64(w.cur) * (now - max(w.since, lo))
	}
	return busy / (span * float64(w.conc))
}

// utilOp is one step of a utilisation script: a transition to slots at
// t, a read at t, or a failure at t followed by a fresh window (as
// Scheduler.Fail and Recover do).
type utilOp struct {
	kind  byte // 't' transition, 'q' query, 'r' fail and recover
	t     float64
	slots int
}

// utilScript draws a random script of n transitions, about perWindow to
// a window, with reads between them in time order, as a scheduler reads
// at its clock's now. Gaps mix zero (two transitions at one instant),
// tiny, ordinary and longer-than-window steps, so reads land inside, at
// the edges of and past busy segments, and whole windows drain; the long
// steps wait for the first window, so every script reads before one
// window has elapsed.
func utilScript(r *rng.Source, n int, window, perWindow float64, conc int) []utilOp {
	var ops []utilOp
	t := 0.0
	for i := 0; i < n; i++ {
		var gap float64
		switch k := r.IntN(20); {
		case k == 0:
			// same instant
		case k == 1:
			gap = 1e-6 * r.Float64()
		case k == 2 && t >= window:
			gap = window * (1 + 2*r.Float64())
		default:
			gap = r.Exp(perWindow / window)
		}
		at := t
		for q := r.IntN(3); q > 0; q-- {
			at += r.Float64() * (t + gap - at)
			ops = append(ops, utilOp{kind: 'q', t: at})
		}
		t += gap
		if r.IntN(4000) == 0 {
			ops = append(ops, utilOp{kind: 'r', t: t})
			t += r.Float64() * window
		}
		ops = append(ops, utilOp{kind: 't', t: t, slots: r.IntN(conc + 1)})
	}
	return ops
}

// TestUtilWindowMatchesScan runs random transition scripts, far longer
// than the window, on utilWindow and on scanWindow and compares every
// read to a relative 1e-9. The scripts start at t=0, so the first reads
// divide by elapsed time; they run long enough to compact the segment
// slice many times; and a rare failure empties the window partway
// through, in place, as Recover does.
func TestUtilWindowMatchesScan(t *testing.T) {
	worst := 0.0
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		window := []float64{0.5, 10, 50}[seed%3]
		conc := 1 + r.IntN(8)
		u := newUtilWindow(window, conc)
		o := &scanWindow{window: window, conc: conc}
		compactions, recoveries, early, reads := 0, 0, 0, 0
		for _, op := range utilScript(r, 20000, window, []float64{8, 200}[seed%2], conc) {
			switch op.kind {
			case 'r':
				u.transition(op.t, 0)
				grown := cap(u.segs)
				u.reset()
				if cap(u.segs) != grown {
					t.Fatalf("seed %d: reset dropped the segment array", seed)
				}
				o = &scanWindow{window: window, conc: conc}
				recoveries++
			case 't':
				head := u.head
				u.transition(op.t, op.slots)
				o.transition(op.t, op.slots)
				if u.head < head {
					compactions++
				}
			case 'q':
				got, want := u.estimate(op.t), o.estimate(op.t)
				reads++
				if op.t < window {
					early++
				}
				if want == 0 {
					if got != 0 {
						t.Fatalf("seed %d: estimate(%v) = %v, want 0", seed, op.t, got)
					}
					continue
				}
				rel := math.Abs(got-want) / want
				worst = max(worst, rel)
				if !(rel <= 1e-9) {
					t.Fatalf("seed %d: estimate(%v) = %v, scan %v (relative error %.3g)", seed, op.t, got, want, rel)
				}
			}
		}
		if compactions == 0 || early == 0 {
			t.Errorf("seed %d: %d compactions, %d reads before one window: the script misses a case", seed, compactions, early)
		}
		if seed == 1 {
			t.Logf("seed 1: %d reads, %d compactions, %d recoveries", reads, compactions, recoveries)
		}
	}
	t.Logf("worst relative error %.3g", worst)
}

// TestUtilWindowAfterRecover pins the window a recovered server
// starts with: a failure at t=130 empties it, and reads after the repair
// at t=140 see only busy time since then, divided by the whole window.
func TestUtilWindowAfterRecover(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 2, AdmitWindow: 50})
	if err != nil {
		t.Fatal(err)
	}
	clock.Schedule(100, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 100, Demand: true})
	})
	clock.Schedule(130, func() { s.Fail() })
	clock.Schedule(140, func() {
		s.Recover()
		s.Submit(Request{Client: 0, Page: 2, Service: 5, Demand: true})
	})
	var got []float64
	for _, at := range []float64{120, 135, 142, 150} {
		clock.Schedule(at, func() { got = append(got, s.Snapshot(clock.Now()).Utilization) })
	}
	clock.Run()
	// [70,120]: 20 slot-seconds of 100. At 135 the failed incarnation's
	// window still holds [100,130]. At 142 and 150 the fresh window holds
	// [140,142] and [140,145].
	want := []float64{0.2, 0.3, 0.02, 0.05}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("read %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestUtilWindowEstimateIsPure replays one script twice, the second time
// with extra reads interleaved before every step, and requires the reads
// both replays share to be bit-identical: a read must not change what a
// later read sees, or a traced run (which reads on every Snapshot) would
// see different admission utilisations than an untraced one. It also
// checks directly that a read leaves the window unchanged.
func TestUtilWindowEstimateIsPure(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(100 + seed)
		window := []float64{0.5, 10, 50}[seed%3]
		conc := 1 + r.IntN(8)
		ops := utilScript(r, 20000, window, []float64{8, 200}[seed%2], conc)
		replay := func(extra *rng.Source) []uint64 {
			u := newUtilWindow(window, conc)
			var reads []uint64
			last := 0.0
			for i, op := range ops {
				if extra != nil {
					for k := extra.IntN(4); k > 0; k-- {
						last += extra.Float64() * (op.t - last)
						if i%64 == 0 {
							before := *u
							before.segs = slices.Clone(u.segs)
							u.estimate(last)
							if !reflect.DeepEqual(before, *u) {
								t.Fatalf("seed %d: estimate(%v) changed the window", seed, last)
							}
							continue
						}
						u.estimate(last)
					}
				}
				switch op.kind {
				case 'r':
					u.transition(op.t, 0)
					u.reset()
				case 't':
					u.transition(op.t, op.slots)
				case 'q':
					reads = append(reads, math.Float64bits(u.estimate(op.t)))
				}
				last = op.t
			}
			return reads
		}
		plain, probed := replay(nil), replay(rng.New(seed))
		diff := 0
		for i := range plain {
			if plain[i] != probed[i] {
				diff++
			}
		}
		if diff > 0 {
			t.Errorf("seed %d: %d of %d reads differ when extra reads are interleaved", seed, diff, len(plain))
		}
	}
}

// BenchmarkSnapshot times one Snapshot against a utilisation window
// holding 64, 1,024 and 16,384 live busy segments. The estimate reads
// two checkpoints of the cumulative busy integral, so ns/op should be
// flat across the sizes. Tracked by the benchmark-regression gate.
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			var clock netsim.Clock
			s, err := New(&clock, Config{Concurrency: 4, AdmitWindow: 50})
			if err != nil {
				b.Fatal(err)
			}
			// n busy segments of alternating 1–4 slots, each followed by an
			// idle gap, spread over the last window.
			step := 50.0 / float64(2*n+1)
			for i := 0; i < 2*n; i++ {
				slots := 0
				if i%2 == 0 {
					slots = 1 + i/2%4
				}
				s.util.transition(50+float64(i)*step, slots)
			}
			now := 50 + float64(2*n)*step
			if live := len(s.util.segs) - s.util.head; live != n {
				b.Fatalf("window holds %d live segments, want %d", live, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += s.Snapshot(now).Utilization
			}
			if !(sink > 0) {
				b.Fatal("snapshot read an idle window")
			}
		})
	}
}
