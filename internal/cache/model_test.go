package cache

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"prefetch/internal/rng"
)

// mapCache is the map-backed reference the dense Cache must match: the
// obvious implementation of the same contract, with entries in a map,
// victims from a sort-and-scan, and the LRU victim from that scan too.
type mapCache struct {
	capacity int
	items    map[int]*Entry
	freqAll  map[int]int64
	clock    int64
}

func newMapCache(capacity int) *mapCache {
	return &mapCache{capacity: capacity, items: map[int]*Entry{}, freqAll: map[int]int64{}}
}

func (m *mapCache) insert(id int, retrieval float64) bool {
	if len(m.items) >= m.capacity || id < 0 || m.items[id] != nil {
		return false
	}
	m.clock++
	m.items[id] = &Entry{ID: id, Retrieval: retrieval, Freq: m.freqAll[id], LastAccess: m.clock, Inserted: m.clock}
	return true
}

func (m *mapCache) evict(id int) bool {
	if m.items[id] == nil {
		return false
	}
	delete(m.items, id)
	return true
}

func (m *mapCache) recordAccess(id int) {
	m.clock++
	m.freqAll[id]++
	if e := m.items[id]; e != nil {
		e.Freq++
		e.LastAccess = m.clock
	}
}

func (m *mapCache) entries() []Entry {
	out := make([]Entry, 0, len(m.items))
	for _, e := range m.items {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestCacheMatchesMapModel runs random Insert/Evict/RecordAccess/
// InsertLRU/Flush sequences against the dense cache and the map model,
// and after every step compares membership (negative ids included),
// Entries and IDs (both in id order), every policy's victim, and Freq —
// which must survive eviction, flush and re-insertion.
func TestCacheMatchesMapModel(t *testing.T) {
	policies := []Policy{LRU{}, LFU{}, FIFO{}, DelaySaving{}}
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
				wantEvicted := m.items[id] == nil && len(m.items) == capacity
				if evicted != wantEvicted {
					t.Fatalf("seed %d step %d: InsertLRU(%d) evicted = %v, want %v", seed, step, id, evicted, wantEvicted)
				}
				if evicted {
					if want := (LRU{}).Victim(m.entries()); victim != want {
						t.Fatalf("seed %d step %d: InsertLRU(%d) evicted %d, want LRU %d", seed, step, id, victim, want)
					}
					m.evict(victim)
				}
				m.insert(id, 2)
			default:
				c.Flush()
				m.items = map[int]*Entry{}
			}
			checkAgainstModel(t, c, m, policies, ids)
			if t.Failed() {
				t.Fatalf("seed %d step %d: dense cache diverged from the map model", seed, step)
			}
		}
	}
}

func checkAgainstModel(t *testing.T, c *Cache, m *mapCache, policies []Policy, ids int) {
	t.Helper()
	want := m.entries()
	if got := c.Entries(); !reflect.DeepEqual(got, want) {
		t.Errorf("Entries = %+v, want %+v", got, want)
	}
	wantIDs := make([]int, len(want))
	for i, e := range want {
		wantIDs[i] = e.ID
	}
	if got := c.IDs(); !reflect.DeepEqual(got, wantIDs) {
		t.Errorf("IDs = %v, want %v", got, wantIDs)
	}
	if c.Len() != len(want) || c.Free() != m.capacity-len(want) {
		t.Errorf("Len/Free = %d/%d, want %d/%d", c.Len(), c.Free(), len(want), m.capacity-len(want))
	}
	for _, p := range policies {
		v, ok := c.Victim(p)
		if ok != (len(want) > 0) || (ok && v != p.Victim(want)) {
			t.Errorf("%s victim = %d,%v", p.Name(), v, ok)
		}
	}
	for id := -1; id <= ids; id++ {
		if got, want := c.Contains(id), m.items[id] != nil; got != want {
			t.Errorf("Contains(%d) = %v, want %v", id, got, want)
		}
		if got, want := c.Freq(id), m.freqAll[id]; got != want {
			t.Errorf("Freq(%d) = %d, want %d", id, got, want)
		}
		e, ok := c.Entry(id)
		if wantE := m.items[id]; ok != (wantE != nil) || (ok && e != *wantE) {
			t.Errorf("Entry(%d) = %+v,%v", id, e, ok)
		}
	}
}

// TestNegativeIDs pins the dense cache's defined behaviour for ids below
// zero: Insert refuses them with ErrBadCache, and they are never cached.
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
	if _, ok := c.Entry(-1); ok {
		t.Fatal("Entry(-1) found")
	}
	c.RecordAccess(-1) // a miss, counted like any other
	if c.Freq(-1) != 1 {
		t.Fatalf("Freq(-1) = %d, want 1", c.Freq(-1))
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
