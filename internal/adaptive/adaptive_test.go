package adaptive

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"prefetch/internal/core"
)

func TestValidate(t *testing.T) {
	good := []Config{
		{},
		{Kind: KindStatic, Lambda0: 0.5},
		{Kind: KindAIMD, Lambda0: 0.1},
		{Kind: KindAIMD, Lambda0: maxLambda},
		{Kind: KindTargetUtil, TargetUtil: 0.9},
		{Kind: KindDelayGradient},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []Config{
		{Kind: "pid"},
		{Lambda0: -1},
		{Lambda0: math.NaN()},
		{Lambda0: math.Inf(1)},
		{Kind: KindAIMD, Lambda0: 8.5},
		{Kind: KindTargetUtil, TargetUtil: 1},
		{Kind: KindTargetUtil, TargetUtil: math.NaN()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad config %d: err = %v, want ErrBadConfig", i, err)
		}
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad config %d: New err = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestValidateReportsDefaultedValues: a Lambda0 of 9 fails against the
// fixed cap of 8, and the diagnostic names both values.
func TestValidateReportsDefaultedValues(t *testing.T) {
	err := Config{Lambda0: 9}.Validate()
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Lambda0 9 above the max lambda: err = %v, want ErrBadConfig", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "max lambda 8") {
		t.Errorf("diagnostic %q does not name the max lambda 8", msg)
	}
	if !strings.Contains(msg, "9") {
		t.Errorf("diagnostic %q does not name the offending lambda0 9", msg)
	}
}

func TestKindsCoverNew(t *testing.T) {
	for _, k := range Kinds() {
		c, err := New(Config{Kind: k})
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if c.Name() != string(k) {
			t.Errorf("New(%s).Name() = %q", k, c.Name())
		}
	}
}

// calm is a zero-congestion feedback for round r: idle server, no delay,
// nothing dropped or deferred.
func calm(r int) Feedback { return Feedback{Round: r} }

// congestedFeedback saturates every congestion signal at once.
func congestedFeedback(r int) Feedback {
	return Feedback{Round: r, Utilization: 1, QueuedDemand: 8, DemandDelay: float64(r), Dropped: 2, Deferred: 3}
}

// planProblem is a fixed SKP instance with a spread of probabilities, so
// different λ values genuinely select different plans.
func planProblem() core.Problem {
	return core.Problem{
		Items: []core.Item{
			{ID: 1, Prob: 0.5, Retrieval: 4},
			{ID: 2, Prob: 0.25, Retrieval: 5},
			{ID: 3, Prob: 0.15, Retrieval: 3},
			{ID: 4, Prob: 0.1, Retrieval: 2},
		},
		Viewing: 9,
	}
}

// planFor solves the shared instance at λ, as a multiclient client would.
func planFor(t *testing.T, lambda float64) []int {
	t.Helper()
	plan, _, err := core.SolveSKPOpts(planProblem(), core.Options{}.WithNetworkLambda(lambda))
	if err != nil {
		t.Fatal(err)
	}
	return plan.IDs()
}

// TestZeroCongestionIsStaticPlan: a controller that never sees congestion
// must hold λ at Lambda0 from the first round — so every plan it prices
// is exactly the static controller's plan.
func TestZeroCongestionIsStaticPlan(t *testing.T) {
	for _, lambda0 := range []float64{0, 0.3} {
		staticPlan := planFor(t, lambda0)
		for _, k := range Kinds() {
			c, err := New(Config{Kind: k, Lambda0: lambda0})
			if err != nil {
				t.Fatal(err)
			}
			for r := 1; r <= 200; r++ {
				l := c.Lambda(calm(r))
				if l != lambda0 {
					t.Fatalf("%s λ0=%v: λ = %v at calm round %d, want %v", k, lambda0, l, r, lambda0)
				}
				if got := planFor(t, l); !reflect.DeepEqual(got, staticPlan) {
					t.Fatalf("%s λ0=%v round %d: plan %v, want static plan %v", k, lambda0, r, got, staticPlan)
				}
			}
		}
	}
}

// TestCalmConvergesBackToStatic: after an arbitrary congestion burst,
// sustained zero-congestion feedback must drain λ back to Lambda0 — the
// closed loop converges to the static-λ plan instead of latching into
// permanent back-off.
func TestCalmConvergesBackToStatic(t *testing.T) {
	const burst, calmRounds = 50, 400
	for _, lambda0 := range []float64{0, 0.3} {
		for _, k := range Kinds() {
			c, err := New(Config{Kind: k, Lambda0: lambda0})
			if err != nil {
				t.Fatal(err)
			}
			r := 1
			for ; r <= burst; r++ {
				c.Lambda(congestedFeedback(r))
			}
			var last float64
			for i := 0; i < calmRounds; i++ {
				last = c.Lambda(calm(r))
				r++
			}
			if last != lambda0 {
				t.Errorf("%s λ0=%v: λ = %v after %d calm rounds, want %v", k, lambda0, last, calmRounds, lambda0)
			}
			if got, want := planFor(t, last), planFor(t, lambda0); !reflect.DeepEqual(got, want) {
				t.Errorf("%s λ0=%v: converged plan %v, want static plan %v", k, lambda0, got, want)
			}
		}
	}
}

// TestAIMDMonotoneInUtilization: for any shared feedback prefix, the AIMD
// λ for the next round is monotone non-decreasing in the observed
// utilisation — more congestion can never make speculation cheaper.
func TestAIMDMonotoneInUtilization(t *testing.T) {
	prefixes := [][]Feedback{
		nil,
		{calm(1), calm(2)},
		{congestedFeedback(1)},
		{congestedFeedback(1), calm(2), congestedFeedback(3), calm(4)},
	}
	for pi, prefix := range prefixes {
		prev := -1.0
		for u := 0.0; u <= 1.0; u += 0.01 {
			c, err := New(Config{Kind: KindAIMD})
			if err != nil {
				t.Fatal(err)
			}
			for _, fb := range prefix {
				c.Lambda(fb)
			}
			l := c.Lambda(Feedback{Round: len(prefix) + 1, Utilization: u})
			if l < prev {
				t.Fatalf("prefix %d: λ(util=%.2f) = %v < λ(util=%.2f) = %v", pi, u, l, u-0.01, prev)
			}
			prev = l
		}
	}
}

// TestAIMDBacksOffAndRecovers pins the AIMD shape: congestion must raise
// λ strictly, calm rounds must lower it strictly until the floor.
func TestAIMDBacksOffAndRecovers(t *testing.T) {
	c, err := New(Config{Kind: KindAIMD})
	if err != nil {
		t.Fatal(err)
	}
	l1 := c.Lambda(congestedFeedback(1))
	if l1 <= 0 {
		t.Fatalf("λ = %v after congestion, want > 0", l1)
	}
	l2 := c.Lambda(congestedFeedback(2))
	if l2 <= l1 {
		t.Fatalf("repeat congestion did not raise λ: %v -> %v", l1, l2)
	}
	l3 := c.Lambda(calm(3))
	if l3 >= l2 {
		t.Fatalf("calm round did not lower λ: %v -> %v", l2, l3)
	}
}

// TestTargetUtilTracksSetpoint: sustained utilisation above the setpoint
// raises λ; at the setpoint λ holds; below it λ drains.
func TestTargetUtilTracksSetpoint(t *testing.T) {
	cfg := Config{Kind: KindTargetUtil, TargetUtil: 0.6}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	high := c.Lambda(Feedback{Round: 1, Utilization: 0.9})
	if high <= 0 {
		t.Fatalf("λ = %v with util above setpoint, want > 0", high)
	}
	hold := c.Lambda(Feedback{Round: 2, Utilization: 0.6})
	if hold != high {
		t.Errorf("λ moved at the setpoint: %v -> %v", high, hold)
	}
	low := c.Lambda(Feedback{Round: 3, Utilization: 0.2})
	if low >= hold {
		t.Errorf("λ did not drain below the setpoint: %v -> %v", hold, low)
	}
}

// TestDelayGradientReactsToOwnDelay: λ rises only when the client's own
// demand delay rises round-over-round.
func TestDelayGradientReactsToOwnDelay(t *testing.T) {
	c, err := New(Config{Kind: KindDelayGradient, Lambda0: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if l := c.Lambda(Feedback{Round: 1, DemandDelay: 1}); l != 0.2 {
		t.Fatalf("first round λ = %v, want floor 0.2 (no gradient yet)", l)
	}
	up := c.Lambda(Feedback{Round: 2, DemandDelay: 3})
	if up <= 0.2 {
		t.Fatalf("rising delay did not raise λ: %v", up)
	}
	down := c.Lambda(Feedback{Round: 3, DemandDelay: 3})
	if down >= up {
		t.Fatalf("flat delay did not lower λ: %v -> %v", up, down)
	}
}

// TestControllersClampToBand: λ never escapes [Lambda0, maxLambda]
// under arbitrary alternating feedback, and the controllers this stream
// keeps pushing up (aimd, delay-gradient) sit at the ceiling.
func TestControllersClampToBand(t *testing.T) {
	const lambda0 = 0.1
	for _, k := range Kinds() {
		c, err := New(Config{Kind: k, Lambda0: lambda0})
		if err != nil {
			t.Fatal(err)
		}
		top := 0.0
		for r := 1; r <= 500; r++ {
			fb := calm(r)
			if r%3 == 0 {
				fb = congestedFeedback(r)
			}
			l := c.Lambda(fb)
			if l < lambda0 || l > maxLambda {
				t.Fatalf("%s: λ = %v escaped [%v, %v] at round %d", k, l, lambda0, maxLambda, r)
			}
			top = math.Max(top, l)
		}
		if (k == KindAIMD || k == KindDelayGradient) && top != maxLambda {
			t.Errorf("%s: λ peaked at %v, want the ceiling %v", k, top, maxLambda)
		}
	}
}

// TestControllersDeterministic: identical feedback streams yield
// identical λ sequences — the property the multiclient bit-for-bit
// replay rests on.
func TestControllersDeterministic(t *testing.T) {
	stream := make([]Feedback, 300)
	for i := range stream {
		fb := Feedback{Round: i + 1, Utilization: float64(i%11) / 10, DemandDelay: float64(i % 7)}
		if i%13 == 0 {
			fb.Dropped = 1
		}
		stream[i] = fb
	}
	for _, k := range Kinds() {
		a, err := New(Config{Kind: k, Lambda0: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{Kind: k, Lambda0: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		for i, fb := range stream {
			if la, lb := a.Lambda(fb), b.Lambda(fb); la != lb {
				t.Fatalf("%s: λ diverged at round %d: %v vs %v", k, i+1, la, lb)
			}
		}
	}
}
