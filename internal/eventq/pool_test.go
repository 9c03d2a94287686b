package eventq

import (
	"testing"

	"prefetch/internal/rng"
)

// poolItem stands in for a pooled event struct: a priority key, the FIFO
// sequence tie-break, and a payload whose value must survive from Push to
// Pop — any aliasing across reuse corrupts it.
type poolItem struct {
	key     int64
	seq     int64
	payload int64
}

func poolItemLess(a, b *poolItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// churn drives a pooled queue and an unpooled value-queue through the same
// op stream and checks every pop agrees, that live queued nodes are never
// handed out again by Get, and that payloads are intact at pop time.
func churn(t *testing.T, ops []byte) {
	t.Helper()
	var pool FreeList[poolItem]
	pooled := New(poolItemLess)
	ref := New(func(a, b poolItem) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq < b.seq
	})
	live := map[*poolItem]bool{}
	var seq int64
	for i, op := range ops {
		if op%3 != 0 || pooled.Len() == 0 {
			seq++
			key := int64(op>>2) % 17
			payload := key*1_000_003 + seq
			n := pool.Get()
			if live[n] {
				t.Fatalf("op %d: Get returned a node still queued", i)
			}
			*n = poolItem{key: key, seq: seq, payload: payload}
			live[n] = true
			pooled.Push(n)
			ref.Push(*n)
			continue
		}
		got, ok := pooled.Pop()
		want, ok2 := ref.Pop()
		if !ok || !ok2 {
			t.Fatalf("op %d: pop disagreement (pooled %v, ref %v)", i, ok, ok2)
		}
		if *got != want {
			t.Fatalf("op %d: popped %+v, reference %+v", i, *got, want)
		}
		if got.payload != got.key*1_000_003+got.seq {
			t.Fatalf("op %d: payload corrupted across reuse: %+v", i, *got)
		}
		delete(live, got)
		pool.Put(got)
	}
	// Drain: pop order over the remaining backlog must match exactly.
	for pooled.Len() > 0 {
		got, _ := pooled.Pop()
		want, ok := ref.Pop()
		if !ok || *got != want {
			t.Fatalf("drain: popped %+v, reference %+v (ok=%v)", *got, want, ok)
		}
		delete(live, got)
		pool.Put(got)
	}
	if ref.Len() != 0 {
		t.Fatalf("reference queue has %d leftovers", ref.Len())
	}
}

// TestFreeListQueueChurn is the deterministic property test: long random
// push/pop/churn streams with heavy key collisions (FIFO tie-breaks) and
// constant node recycling.
func TestFreeListQueueChurn(t *testing.T) {
	r := rng.New(77)
	for round := 0; round < 20; round++ {
		ops := make([]byte, 2000)
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		churn(t, ops)
	}
}

// FuzzFreeListQueue lets the fuzzer search for op interleavings that break
// the pooled/unpooled equivalence.
func FuzzFreeListQueue(f *testing.F) {
	f.Add([]byte{0, 3, 6, 1, 9, 3, 3, 3})
	f.Add([]byte{255, 254, 253, 0, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			ops = ops[:1<<14]
		}
		churn(t, ops)
	})
}

// TestFreeListBounds pins the reuse contract: Get hands back the most
// recently Put node first (LIFO), Put(nil) is a no-op, and an empty pool
// allocates a fresh node.
func TestFreeListBounds(t *testing.T) {
	var pool FreeList[poolItem]
	a, b := pool.Get(), pool.Get()
	pool.Put(a)
	pool.Put(b)
	pool.Put(nil) // must be a no-op
	if got := pool.Get(); got != b {
		t.Fatalf("Get returned %p, want most recently put %p", got, b)
	}
	if got := pool.Get(); got != a {
		t.Fatalf("Get returned %p, want %p", got, a)
	}
	if got := pool.Get(); got == nil || got == a || got == b {
		t.Fatalf("empty pool returned %p, want a fresh node", got)
	}
}
