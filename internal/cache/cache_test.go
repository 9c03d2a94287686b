package cache

import (
	"testing"
	"testing/quick"

	"prefetch/internal/rng"
)

func mustNew(t *testing.T, capacity int) *Cache {
	t.Helper()
	c, err := New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// entryOf returns the cached entry for id, read through Entries.
func entryOf(c *Cache, id int) (Entry, bool) {
	for _, e := range c.Entries() {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	c := mustNew(t, 0)
	if c.Free() != 0 || c.Len() != 0 || c.Capacity() != 0 {
		t.Fatal("zero-capacity cache bookkeeping wrong")
	}
	if err := c.Insert(1, 5); err == nil {
		t.Fatal("insert into zero-capacity cache accepted")
	}
}

func TestInsertEvictContains(t *testing.T) {
	c := mustNew(t, 2)
	if err := c.Insert(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(1, 5); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if err := c.Insert(2, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(3, 9); err == nil {
		t.Fatal("insert into full cache accepted")
	}
	if !c.Contains(1) || !c.Contains(2) || c.Contains(3) {
		t.Fatal("Contains wrong")
	}
	if c.Len() != 2 || c.Free() != 0 {
		t.Fatal("Len/Free wrong")
	}
	if err := c.Evict(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict(1); err == nil {
		t.Fatal("double evict accepted")
	}
	if c.Contains(1) || c.Len() != 1 {
		t.Fatal("evict bookkeeping wrong")
	}
	if es := c.Entries(); len(es) != 1 || es[0].ID != 2 {
		t.Fatalf("Entries = %v", es)
	}
}

// TestRecordAccessUpdatesRecency: an access moves a cached item to the
// most recently used end, which Victim shows; a miss moves nothing.
func TestRecordAccessUpdatesRecency(t *testing.T) {
	c := mustNew(t, 2)
	if err := c.Insert(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(2, 5); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Victim(LRU{}); v != 1 {
		t.Fatalf("victim after inserts = %d, want 1", v)
	}
	c.RecordAccess(1) // 1 becomes most recent
	if v, _ := c.Victim(LRU{}); v != 2 {
		t.Fatalf("victim after accessing 1 = %d, want 2", v)
	}
	c.RecordAccess(3) // a miss
	if v, _ := c.Victim(LRU{}); v != 2 || c.Contains(3) {
		t.Fatalf("miss changed the cache: victim %d, contains 3 = %v", v, c.Contains(3))
	}
	c.RecordAccess(2)
	if v, _ := c.Victim(LRU{}); v != 1 {
		t.Fatalf("victim after accessing 2 = %d, want 1", v)
	}
}

func TestLRUPolicy(t *testing.T) {
	c := mustNew(t, 3)
	for id := 1; id <= 3; id++ {
		if err := c.Insert(id, 5); err != nil {
			t.Fatal(err)
		}
	}
	c.RecordAccess(1)
	c.RecordAccess(3)
	// 2 is least recently used.
	if v, ok := c.Victim(LRU{}); !ok || v != 2 {
		t.Fatalf("LRU victim = %v, want 2", v)
	}
}

func TestVictimEmptyCache(t *testing.T) {
	c := mustNew(t, 2)
	if _, ok := c.Victim(LRU{}); ok {
		t.Fatal("victim from empty cache")
	}
}

// Property: occupancy never exceeds capacity and Insert/Evict keep Len
// consistent under random operation sequences.
func TestCacheInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		c, err := New(4)
		if err != nil {
			return false
		}
		present := map[int]bool{}
		for _, op := range ops {
			id := int(op % 8)
			switch (op / 8) % 3 {
			case 0:
				err := c.Insert(id, float64(id+1))
				shouldFail := present[id] || len(present) >= 4
				if (err != nil) != shouldFail {
					return false
				}
				if err == nil {
					present[id] = true
				}
			case 1:
				err := c.Evict(id)
				if (err != nil) == present[id] {
					return false
				}
				delete(present, id)
			case 2:
				c.RecordAccess(id)
			}
			if c.Len() != len(present) || c.Len() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesSortedAndCopied(t *testing.T) {
	c := mustNew(t, 3)
	for _, id := range []int{9, 1, 4} {
		if err := c.Insert(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	es := c.Entries()
	if len(es) != 3 || es[0].ID != 1 || es[1].ID != 4 || es[2].ID != 9 {
		t.Fatalf("Entries = %v", es)
	}
	es[0].Retrieval = 999 // mutating the copy must not affect the cache
	if e, _ := entryOf(c, 1); e.Retrieval == 999 {
		t.Fatal("Entries leaked internal state")
	}
}

// TestLRUFastPathMatchesScan churns a small cache through interleaved
// inserts, accesses, evictions and emptyings, checking at every step that the
// O(1) recency-list victim is the entry a last-access scan picks, under a
// clock the test keeps itself.
func TestLRUFastPathMatchesScan(t *testing.T) {
	c := mustNew(t, 4)
	lc := newLastAccess()
	next := 0
	step := func(op int) {
		switch {
		case op%7 == 3 && c.Len() > 0:
			es := c.Entries()
			if err := c.Evict(es[op%len(es)].ID); err != nil {
				t.Fatal(err)
			}
		case op%23 == 11:
			for _, e := range c.Entries() {
				if err := c.Evict(e.ID); err != nil {
					t.Fatal(err)
				}
			}
		case op%3 == 0:
			c.RecordAccess(op % 17) // mix of hits and misses
			if c.Contains(op % 17) {
				lc.touch(op % 17)
			}
		default:
			if c.Free() == 0 {
				v, ok := c.Victim(LRU{})
				if !ok {
					t.Fatal("full cache with no victim")
				}
				if err := c.Evict(v); err != nil {
					t.Fatal(err)
				}
			}
			if !c.Contains(next % 17) {
				if err := c.Insert(next%17, 1.5); err != nil {
					t.Fatal(err)
				}
				lc.touch(next % 17)
			}
			next++
		}
	}
	for op := 0; op < 2000; op++ {
		step(op)
		if c.Len() == 0 {
			continue
		}
		fast, ok := c.Victim(LRU{})
		if !ok {
			t.Fatal("non-empty cache with no victim")
		}
		want := lc.victim(c.Entries())
		if fast != want {
			t.Fatalf("op %d: fast LRU victim %d, scan victim %d", op, fast, want)
		}
	}
}

// BenchmarkCache times the operations the simulator runs on a cache, at
// the multiclient client cache's shape: 20 slots over the default site's
// 120 pages, probed and filled with ids from a fixed random sequence.
// Contains is the planner's held probe, one per candidate that reaches
// the filter; InsertLRU fills a full cache, so inserting an absent id
// evicts the recency head; Victim reads that head.
func BenchmarkCache(b *testing.B) {
	const slots, pages = 20, 120
	r := rng.New(7)
	ids := make([]int, 1024)
	for i := range ids {
		ids[i] = r.IntN(pages)
	}
	full := func(b *testing.B) *Cache {
		c, err := New(slots)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ids {
			c.InsertLRU(id, 1)
		}
		return c
	}
	var sink int
	b.Run("Contains", func(b *testing.B) {
		c := full(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c.Contains(ids[i%len(ids)]) {
				sink++
			}
		}
	})
	b.Run("InsertLRU", func(b *testing.B) {
		c := full(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, evicted := c.InsertLRU(ids[i%len(ids)], 1); evicted {
				sink++
			}
		}
	})
	b.Run("Victim", func(b *testing.B) {
		c := full(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := c.Victim(LRU{})
			sink += v
		}
	})
	cacheSink = sink
}

// cacheSink keeps BenchmarkCache's results live.
var cacheSink int
