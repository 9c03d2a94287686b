package cache

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"prefetch/internal/rng"
)

// lastAccess is the tests' LRU oracle: a logical clock stamped on every
// insert and cached access, and a scan for the smallest stamp.
type lastAccess struct {
	clock int64
	at    map[int]int64
}

func newLastAccess() *lastAccess { return &lastAccess{at: map[int]int64{}} }

func (l *lastAccess) touch(id int) {
	l.clock++
	l.at[id] = l.clock
}

// victim returns the entry with the smallest stamp; entries is non-empty.
// The clock never repeats a stamp, so no tie-break is needed.
func (l *lastAccess) victim(entries []Entry) int {
	best := entries[0].ID
	for _, e := range entries[1:] {
		if l.at[e.ID] < l.at[best] {
			best = e.ID
		}
	}
	return best
}

// mapCache is the map-backed reference the dense Cache must match: the
// obvious implementation of the same contract, with entries in a map and
// the LRU victim from a last-access scan.
type mapCache struct {
	capacity int
	items    map[int]Entry
	last     *lastAccess
}

func newMapCache(capacity int) *mapCache {
	return &mapCache{capacity: capacity, items: map[int]Entry{}, last: newLastAccess()}
}

func (m *mapCache) insert(id int, retrieval float64) bool {
	if _, ok := m.items[id]; ok || len(m.items) >= m.capacity || id < 0 {
		return false
	}
	m.items[id] = Entry{ID: id, Retrieval: retrieval}
	m.last.touch(id)
	return true
}

func (m *mapCache) evict(id int) bool {
	if _, ok := m.items[id]; !ok {
		return false
	}
	delete(m.items, id)
	return true
}

func (m *mapCache) recordAccess(id int) {
	if _, ok := m.items[id]; ok {
		m.last.touch(id)
	}
}

func (m *mapCache) entries() []Entry {
	out := make([]Entry, 0, len(m.items))
	for _, e := range m.items {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestCacheMatchesMapModel runs random Insert/Evict/RecordAccess/
// InsertLRU/evict-all sequences against the dense cache and the map model,
// and after every step compares membership (negative ids included),
// Entries (in id order) and the LRU victim.
func TestCacheMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		capacity := r.IntN(9)
		ids := 1 + r.IntN(40) // ids drawn from [-1, ids)
		c := mustNew(t, capacity)
		m := newMapCache(capacity)
		for step := 0; step < 400; step++ {
			id := r.IntN(ids+1) - 1
			switch op := r.IntN(20); {
			case op < 7:
				retrieval := float64(1 + r.IntN(9))
				err := c.Insert(id, retrieval)
				if ok := m.insert(id, retrieval); ok != (err == nil) {
					t.Fatalf("seed %d step %d: Insert(%d) err = %v, model ok = %v", seed, step, id, err, ok)
				}
				if err != nil && !errors.Is(err, ErrBadCache) {
					t.Fatalf("seed %d step %d: Insert(%d) err = %v, want ErrBadCache", seed, step, id, err)
				}
			case op < 10:
				err := c.Evict(id)
				if ok := m.evict(id); ok != (err == nil) {
					t.Fatalf("seed %d step %d: Evict(%d) err = %v, model ok = %v", seed, step, id, err, ok)
				}
			case op < 16:
				c.RecordAccess(id)
				m.recordAccess(id)
			case op < 19:
				if id < 0 || capacity == 0 {
					continue // InsertLRU panics on negative ids; zero capacity stores nothing
				}
				victim, evicted := c.InsertLRU(id, 2)
				_, cached := m.items[id]
				wantEvicted := !cached && len(m.items) == capacity
				if evicted != wantEvicted {
					t.Fatalf("seed %d step %d: InsertLRU(%d) evicted = %v, want %v", seed, step, id, evicted, wantEvicted)
				}
				if evicted {
					if want := m.last.victim(m.entries()); victim != want {
						t.Fatalf("seed %d step %d: InsertLRU(%d) evicted %d, want LRU %d", seed, step, id, victim, want)
					}
					m.evict(victim)
				}
				m.insert(id, 2)
			default:
				for _, e := range c.Entries() {
					if err := c.Evict(e.ID); err != nil {
						t.Fatal(err)
					}
				}
				m.items = map[int]Entry{}
			}
			checkAgainstModel(t, c, m, ids)
			if t.Failed() {
				t.Fatalf("seed %d step %d: dense cache diverged from the map model", seed, step)
			}
		}
	}
}

func checkAgainstModel(t *testing.T, c *Cache, m *mapCache, ids int) {
	t.Helper()
	want := m.entries()
	if got := c.Entries(); !reflect.DeepEqual(got, want) {
		t.Errorf("Entries = %+v, want %+v", got, want)
	}
	if c.Len() != len(want) || c.Free() != m.capacity-len(want) {
		t.Errorf("Len/Free = %d/%d, want %d/%d", c.Len(), c.Free(), len(want), m.capacity-len(want))
	}
	if v, ok := c.Victim(LRU{}); ok != (len(want) > 0) || (ok && v != m.last.victim(want)) {
		t.Errorf("LRU victim = %d,%v", v, ok)
	}
	for id := -1; id <= ids; id++ {
		if _, want := m.items[id]; c.Contains(id) != want {
			t.Errorf("Contains(%d) = %v, want %v", id, !want, want)
		}
	}
}

// TestNegativeIDs pins the dense cache's defined behaviour for ids below
// zero: Insert refuses them with ErrBadCache, they are never cached, and
// an access to one is a no-op.
func TestNegativeIDs(t *testing.T) {
	c := mustNew(t, 2)
	if err := c.Insert(-1, 3); !errors.Is(err, ErrBadCache) {
		t.Fatalf("Insert(-1) err = %v, want ErrBadCache", err)
	}
	if c.Contains(-1) || c.Len() != 0 {
		t.Fatal("negative id cached")
	}
	if err := c.Evict(-1); !errors.Is(err, ErrBadCache) {
		t.Fatalf("Evict(-1) err = %v, want ErrBadCache", err)
	}
	if err := c.Insert(4, 3); err != nil {
		t.Fatal(err)
	}
	c.RecordAccess(-1)
	if v, ok := c.Victim(LRU{}); c.Len() != 1 || !ok || v != 4 {
		t.Fatalf("RecordAccess(-1): Len %d, victim %d,%v; want 1, 4,true", c.Len(), v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("InsertLRU(-1) did not panic")
		}
	}()
	c.InsertLRU(-1, 3)
}

// TestInsertLRUZeroCapacity: a zero-slot LRU store keeps nothing and
// evicts nothing.
func TestInsertLRUZeroCapacity(t *testing.T) {
	c := mustNew(t, 0)
	if _, evicted := c.InsertLRU(4, 1); evicted || c.Contains(4) {
		t.Fatalf("zero-capacity InsertLRU evicted=%v contains=%v", evicted, c.Contains(4))
	}
}
