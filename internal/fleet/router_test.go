package fleet

import (
	"errors"
	"testing"
)

func allUp(n int) []ReplicaState {
	states := make([]ReplicaState, n)
	for i := range states {
		states[i] = ReplicaState{ID: i, Up: true}
	}
	return states
}

func TestNewRouterKinds(t *testing.T) {
	for _, k := range Kinds() {
		r, err := NewRouter(k, 3)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", k, err)
		}
		if r.Name() != string(k) {
			t.Errorf("router %q reports name %q", k, r.Name())
		}
	}
	if r, err := NewRouter("", 3); err != nil || r.Name() != string(KindRoundRobin) {
		t.Errorf("empty kind: router %v, err %v; want round-robin", r, err)
	}
	if _, err := NewRouter("nope", 3); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown kind: err = %v, want ErrBadConfig", err)
	}
}

// TestRoundRobinSkipsDownReplicas: the cursor cycles over live replicas
// only, and an all-down fleet reports no placement.
func TestRoundRobinSkipsDownReplicas(t *testing.T) {
	r := &roundRobin{}
	states := allUp(3)
	states[1].Up = false
	var got []int
	for i := 0; i < 6; i++ {
		id, ok := r.Route(0, 0, states)
		if !ok {
			t.Fatal("route failed with live replicas")
		}
		if id == 1 {
			t.Fatal("routed to a down replica")
		}
		got = append(got, id)
	}
	want := []int{0, 2, 0, 2, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
	for i := range states {
		states[i].Up = false
	}
	if _, ok := r.Route(0, 0, states); ok {
		t.Fatal("route succeeded with every replica down")
	}
}

// TestLeastLoadedPicksSmallestLiveBacklog: the smallest Load wins, down
// replicas are never candidates no matter how idle, ties break by id.
func TestLeastLoadedPicksSmallestLiveBacklog(t *testing.T) {
	r := leastLoaded{}
	states := allUp(3)
	states[0].Load = 5
	states[1].Load = 2
	states[2].Load = 3
	if id, ok := r.Route(0, 0, states); !ok || id != 1 {
		t.Fatalf("route = %d,%v, want replica 1", id, ok)
	}
	// The idle replica is down: it must lose to a loaded live one.
	states[1].Up = false
	states[1].Load = 0
	if id, ok := r.Route(0, 0, states); !ok || id == 1 {
		t.Fatalf("route = %d,%v, want a live replica", id, ok)
	}
	// Tie: lowest id wins.
	tie := allUp(3)
	if id, ok := r.Route(0, 0, tie); !ok || id != 0 {
		t.Fatalf("tie route = %d,%v, want replica 0", id, ok)
	}
	for i := range states {
		states[i].Up = false
	}
	if _, ok := r.Route(0, 0, states); ok {
		t.Fatal("route succeeded with every replica down")
	}
}

// TestHashRingStickyAndConsistent: a client always maps to its home
// while the home is up, and Route agrees with Home on a healthy fleet.
func TestHashRingStickyAndConsistent(t *testing.T) {
	const replicas = 4
	r := newHashRing(replicas)
	states := allUp(replicas)
	for client := 0; client < 50; client++ {
		home := r.Home(client, replicas)
		if home < 0 || home >= replicas {
			t.Fatalf("client %d home %d out of range", client, home)
		}
		for trial := 0; trial < 3; trial++ {
			id, ok := r.Route(client, trial, states)
			if !ok || id != home {
				t.Fatalf("client %d routed to %d (ok=%v), home %d", client, id, ok, home)
			}
		}
	}
}

// TestHashRingBoundedMovement: a failure moves only the failed
// replica's clients (they walk on to live owners); everyone else stays
// put — and recovery moves them all back.
func TestHashRingBoundedMovement(t *testing.T) {
	const replicas, clients = 4, 200
	r := newHashRing(replicas)
	states := allUp(replicas)
	before := make([]int, clients)
	for c := 0; c < clients; c++ {
		before[c], _ = r.Route(c, 0, states)
	}
	const down = 2
	states[down].Up = false
	moved := 0
	for c := 0; c < clients; c++ {
		id, ok := r.Route(c, 0, states)
		if !ok {
			t.Fatalf("client %d unroutable with three live replicas", c)
		}
		if id == down {
			t.Fatalf("client %d routed to the down replica", c)
		}
		if before[c] == down {
			moved++
			continue
		}
		if id != before[c] {
			t.Fatalf("client %d moved %d→%d though its home never failed", c, before[c], id)
		}
	}
	if moved == 0 {
		t.Fatal("no client was homed on the failed replica; movement test vacuous")
	}
	states[down].Up = true
	for c := 0; c < clients; c++ {
		if id, _ := r.Route(c, 0, states); id != before[c] {
			t.Fatalf("client %d did not return home after recovery: %d != %d", c, id, before[c])
		}
	}
}

// TestHashRingSpread: vnodes keep the client distribution from
// collapsing onto one replica.
func TestHashRingSpread(t *testing.T) {
	const replicas, clients = 4, 400
	r := newHashRing(replicas)
	counts := make([]int, replicas)
	for c := 0; c < clients; c++ {
		counts[r.Home(c, replicas)]++
	}
	for id, n := range counts {
		if n == 0 {
			t.Fatalf("replica %d owns no clients: %v", id, counts)
		}
	}
}
