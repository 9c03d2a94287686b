package predict

import (
	"math"
	"testing"

	"prefetch/internal/access"
	"prefetch/internal/rng"
)

func TestDependencyGraphLearnsTransitions(t *testing.T) {
	d := NewDependencyGraph()
	if len(d.Next(0)) != 0 {
		t.Fatal("empty model must predict nothing")
	}
	// Feed A,B,A,B,A,C: from A we saw B twice and C once.
	for _, it := range []int{1, 2, 1, 2, 1, 3} {
		d.Observe(it)
	}
	d.Observe(1) // land on A
	pred := d.Next(1)
	if math.Abs(pred[2]-2.0/3.0) > 1e-12 || math.Abs(pred[3]-1.0/3.0) > 1e-12 {
		t.Fatalf("prediction from A = %v, want {2: 2/3, 3: 1/3}", pred)
	}
	var sum float64
	for _, p := range pred {
		sum += p
	}
	if sum > 1+1e-9 {
		t.Fatalf("prediction mass %v exceeds 1", sum)
	}
	if d.Name() == "" {
		t.Fatal("predictor without a name")
	}
}

func TestDependencyGraphUnseenState(t *testing.T) {
	d := NewDependencyGraph()
	d.Observe(1)
	d.Observe(2)
	d.Observe(99) // 99 never had an outgoing observation
	if len(d.Next(99)) != 0 {
		t.Fatal("prediction from unseen state must be empty")
	}
}

func TestPPMOrder2BeatsOrder1OnAlternation(t *testing.T) {
	// Sequence: 1,2,1,3,1,2,1,3,... After context [2,1] the next is always
	// 3; after [3,1] always 2. Order-1 sees only "after 1" = {2: 1/2, 3: 1/2}.
	p1, err := NewPPM(1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPPM(2)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{}
	for i := 0; i < 40; i++ {
		seq = append(seq, 1, 2, 1, 3)
	}
	for _, it := range seq {
		p1.Observe(it)
		p2.Observe(it)
	}
	// History ends ...,1,3 — wait, seq pattern repeats (1,2,1,3); last two
	// observations are 1,3. Next in pattern is 1.
	pred2 := p2.Next(3)
	if pred2[1] < 0.99 {
		t.Fatalf("order-2 should be certain of 1 after (1,3): %v", pred2)
	}
	pred1 := p1.Next(3)
	if pred1[1] < 0.99 {
		t.Fatalf("order-1 after 3 also predicts 1: %v", pred1)
	}
	// Distinguishing context: after (2,1) order-2 says 3; order-1 after 1 is split.
	p2.Observe(1)
	p2.Observe(2)
	p2.Observe(1)
	if pred := p2.Next(1); pred[3] < 0.99 {
		t.Fatalf("order-2 after (2,1) should predict 3: %v", pred)
	}
	p1.Observe(1)
	pred1 = p1.Next(1)
	if pred1[2] < 0.3 || pred1[3] < 0.3 {
		t.Fatalf("order-1 after 1 should split between 2 and 3: %v", pred1)
	}
}

func TestPPMEscapesToShorterContext(t *testing.T) {
	p, err := NewPPM(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []int{5, 6, 5, 6, 5} {
		p.Observe(it)
	}
	// Make the long context unseen by jumping to a fresh item whose order-1
	// context was still observed once.
	p.Observe(6)
	pred := p.Next(6)
	if pred[5] < 0.99 {
		t.Fatalf("after 6, order-1 evidence says 5: %v", pred)
	}
	// Entirely fresh item: no context at any order.
	p.Observe(42)
	if len(p.Next(42)) != 0 {
		t.Fatal("prediction after unseen item must be empty")
	}
}

func TestPPMValidation(t *testing.T) {
	if _, err := NewPPM(0); err == nil {
		t.Fatal("order-0 PPM accepted")
	}
}

func TestPredictorsAgreeWithMarkovChain(t *testing.T) {
	// Train the dependency graph on a long walk of a known chain; its
	// predictions should approach the true transition probabilities.
	r := rng.New(68)
	m, err := access.BuildMarkov(r, access.MarkovConfig{States: 8, MinOut: 3, MaxOut: 3, MinViewing: 1, MaxViewing: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDependencyGraph()
	d.Observe(m.State())
	for i := 0; i < 300000; i++ {
		d.Observe(m.Next())
	}
	s := m.State()
	succ, prob := m.Successors(s)
	pred := d.Next(s)
	for i, target := range succ {
		if math.Abs(pred[target]-prob[i]) > 0.02 {
			t.Fatalf("learned P(%d|%d) = %v, true %v", target, s, pred[target], prob[i])
		}
	}
}

// TestPredictorNextExplicitState: Next(state) must predict from the given
// state, answering for arbitrary states independently of the tracked
// context (PPM escapes to the order-1 context of the queried state).
func TestPredictorNextExplicitState(t *testing.T) {
	d := NewDependencyGraph()
	for _, it := range []int{1, 2, 1, 3, 1, 2} {
		d.Observe(it)
	}
	// Out of 2 we saw 1 once: Next(2) = {1:1}.
	if p2 := d.Next(2); len(p2) != 1 || p2[1] != 1 {
		t.Errorf("Next(2) = %v, want {1:1}", p2)
	}
	// Out of 1 we saw 2,3,2: Next(1) must not depend on last being 2.
	n1 := d.Next(1)
	if len(n1) != 2 || n1[2] != 2.0/3 || n1[3] != 1.0/3 {
		t.Errorf("Next(1) = %v, want {2:2/3, 3:1/3}", n1)
	}
	if len(d.Next(99)) != 0 {
		t.Error("Next of an unseen state should be empty")
	}

	p, err := NewPPM(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []int{1, 2, 3, 1, 2, 4, 1, 2} {
		p.Observe(it)
	}
	// History ends 1,2: the order-2 context predicts {3,4} evenly.
	got := p.Next(2)
	if len(got) != 2 || got[3] != 0.5 || got[4] != 0.5 {
		t.Errorf("Next(2) with full context = %v, want {3:0.5, 4:0.5}", got)
	}
	// Querying state 1 (not the last observation) must escape to the
	// order-1 context of 1 alone: always followed by 2.
	got = p.Next(1)
	if len(got) != 1 || got[2] != 1 {
		t.Errorf("Next(1) off-context = %v, want {2:1}", got)
	}
}
