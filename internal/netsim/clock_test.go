package netsim

import (
	"math"
	"sort"
	"strconv"
	"testing"

	"prefetch/internal/rng"
)

// scheduled is one Schedule call as the test saw it: the requested time
// and the call's position in schedule order.
type scheduled struct {
	t   float64
	seq int
}

// TestClockDrainMatchesSort drives the Clock with random schedules and
// checks that it fires every event in the order of a plain sort by
// (time, schedule order). Times come from a coarse grid, so most events
// tie; both signed zeros are in the grid, and they must tie with each
// other. A third of the callbacks schedule more events, some at the
// current time, so events scheduled from inside the drain are covered.
// Events a callback adds sort after it (their time is not earlier and
// their order is later), so the full fired sequence equals one sort of
// everything ever scheduled. Depths run from an empty clock to 5k
// pending events.
func TestClockDrainMatchesSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	grid := []float64{negZero, 0, 0.5, 1, 1.5, 2, 3, 5, 8}
	r := rng.New(31)
	for _, depth := range []int{0, 1, 2, 3, 4, 5, 6, 17, 64, 257, 1000, 5000} {
		for trial := 0; trial < 4; trial++ {
			var (
				c     Clock
				all   []scheduled
				fired []int
			)
			budget := depth // events callbacks may still add
			var schedule func(at float64)
			schedule = func(at float64) {
				ev := scheduled{t: at, seq: len(all)}
				all = append(all, ev)
				c.Schedule(at, func() {
					if now := c.Now(); now != ev.t || math.Signbit(now) {
						t.Fatalf("depth %d: event %d fired at Now() = %v, scheduled for %v", depth, ev.seq, now, ev.t)
					}
					fired = append(fired, ev.seq)
					if budget > 0 && r.IntN(3) == 0 {
						for k := r.IntN(4); k > 0 && budget > 0; k-- {
							budget--
							d := grid[r.IntN(len(grid))]
							schedule(c.Now() + d)
						}
					}
				})
			}
			for i := 0; i < depth; i++ {
				schedule(grid[r.IntN(len(grid))])
			}
			if c.Pending() != depth {
				t.Fatalf("depth %d: Pending = %d before Run", depth, c.Pending())
			}
			c.Run()

			want := append([]scheduled(nil), all...)
			sort.Slice(want, func(i, j int) bool {
				if want[i].t != want[j].t {
					return want[i].t < want[j].t
				}
				return want[i].seq < want[j].seq
			})
			if len(fired) != len(want) {
				t.Fatalf("depth %d trial %d: fired %d events, scheduled %d", depth, trial, len(fired), len(want))
			}
			for i, w := range want {
				if fired[i] != w.seq {
					t.Fatalf("depth %d trial %d: fire %d was event %d, sort says %d (t=%v)",
						depth, trial, i, fired[i], w.seq, w.t)
				}
			}
			if c.Pending() != 0 {
				t.Fatalf("depth %d: Pending = %d after Run", depth, c.Pending())
			}
		}
	}
}

// TestClockPendingTracksSteps interleaves single steps with new events
// and checks Pending against a count kept by hand, and the fired time
// against the smallest pending time, at every step.
func TestClockPendingTracksSteps(t *testing.T) {
	r := rng.New(37)
	var c Clock
	var pending []float64
	for step := 0; step < 20000; step++ {
		if len(pending) == 0 || r.IntN(2) == 0 {
			at := c.Now() + float64(r.IntN(6))/2
			pending = append(pending, at)
			c.Schedule(at, func() {})
		} else {
			lo := 0
			for i, p := range pending {
				if p < pending[lo] {
					lo = i
				}
			}
			want := pending[lo]
			pending = append(pending[:lo], pending[lo+1:]...)
			c.step()
			if c.Now() != want {
				t.Fatalf("step %d: Now() = %v, smallest pending time %v", step, c.Now(), want)
			}
		}
		if c.Pending() != len(pending) {
			t.Fatalf("step %d: Pending = %d, want %d", step, c.Pending(), len(pending))
		}
	}
}

// BenchmarkClockChurn holds N pending events under steady churn, in the
// shape of eventq's BenchmarkEventQueue: schedule N events, then 4096
// times fire the earliest and schedule a successor at a random offset.
func BenchmarkClockChurn(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(strconv.Itoa(n/1024)+"k", func(b *testing.B) { benchmarkClockChurn(b, n) })
	}
}

func benchmarkClockChurn(b *testing.B, n int) {
	const churn = 4096
	r := rng.New(99)
	offsets := make([]float64, n+churn)
	for i := range offsets {
		offsets[i] = float64(r.Uint64()%1000) / 10
	}
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c Clock
		for j := 0; j < n; j++ {
			c.Schedule(offsets[j], fn)
		}
		for j := 0; j < churn; j++ {
			c.step()
			c.After(offsets[n+j], fn)
		}
	}
}
