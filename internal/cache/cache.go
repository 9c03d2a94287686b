// Package cache provides the client-side cache substrate for the
// prefetch-cache integration (paper §5): a fixed-capacity, equal-item-size
// cache with access bookkeeping (frequency, recency, insertion order) and a
// family of victim policies — the paper's Pr-arbitration lives in
// internal/core; this package supplies the container plus the classical
// baselines (LRU, LFU, FIFO, delay-saving) used by extension experiments.
package cache

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadCache reports invalid cache construction or use.
var ErrBadCache = errors.New("cache: bad cache operation")

// Entry is the bookkeeping record for one cached item.
type Entry struct {
	ID         int
	Retrieval  float64 // r_i, retrieval time if it had to be refetched
	Freq       int64   // accesses observed while tracked
	LastAccess int64   // logical time of last access
	Inserted   int64   // logical time of insertion

	// prev/next link the entry's slab slot into the cache's recency list
	// (while cached) or its free chain (while free), as slot+1 with 0 for
	// none. Keeping the recency list intrusive makes the LRU victim an
	// O(1) head read instead of an Entries() copy-and-scan — the dominant
	// cost of every eviction at fleet scale. The copies handed out by
	// Entry/Entries have these cleared.
	prev, next int32
}

// maxCapacity keeps every slot+1 representable in an int32 link.
const maxCapacity = math.MaxInt32 - 1

// Cache is a fixed-capacity set of equal-size items with usage bookkeeping.
// It is not safe for concurrent use; the simulators are single-goroutine
// per replica and merge results afterwards.
//
// Item ids are small dense non-negative ints (page ids), so the cache is
// two arrays rather than a map: a slab of capacity entries allocated once
// in New, and an index from id to slab slot. Every slot is in exactly one
// of two chains threaded through Entry.prev/next: the recency list (the
// slot is cached and index[ID] names it) or the free chain. Probes are
// array reads, and Entries/IDs walk the index, so they come out ordered by
// id without a sort.
type Cache struct {
	capacity int
	slab     []Entry
	// index maps an item id to its slab slot+1, 0 meaning not cached. It
	// grows on demand to the largest id ever inserted.
	index []int32
	n     int // cached items
	clock int64
	// freqAll tracks access counts for every item ever seen, cached or not:
	// the paper's freq_i (delay-saving profit, LFU sub-arbitration) is a
	// property of the item's access history, not of its cache residency.
	// It stays a map: it holds every id ever accessed, and a dense array of
	// them costs more memory than the probes it would save.
	freqAll map[int]int64

	// head/tail bound the recency list (head = least recently accessed),
	// as slot+1. Tick is strictly monotonic, so LastAccess values are
	// unique and list order is exactly ascending LastAccess — the O(1)
	// victim below is bit-for-bit the Entries()-scan LRU victim.
	head, tail int32
	free       int32 // head of the free chain, slot+1
}

// New creates a cache with the given capacity (number of items).
func New(capacity int) (*Cache, error) {
	if capacity < 0 || capacity > maxCapacity {
		return nil, fmt.Errorf("%w: capacity %d", ErrBadCache, capacity)
	}
	c := &Cache{
		capacity: capacity,
		slab:     make([]Entry, capacity),
		freqAll:  make(map[int]int64),
	}
	c.resetFree()
	return c, nil
}

// resetFree chains every slab slot, in slot order, onto the free chain.
func (c *Cache) resetFree() {
	for i := range c.slab {
		c.slab[i].next = int32(i + 2)
	}
	if n := len(c.slab); n > 0 {
		c.slab[n-1].next = 0
		c.free = 1
	}
}

// at returns the entry in slot (1-based).
func (c *Cache) at(slot int32) *Entry { return &c.slab[slot-1] }

// slotOf returns id's slot (1-based), 0 when id is not cached.
func (c *Cache) slotOf(id int) int32 {
	if uint(id) >= uint(len(c.index)) {
		return 0
	}
	return c.index[id]
}

// Capacity returns the configured capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached items.
func (c *Cache) Len() int { return c.n }

// Free returns the number of free slots.
func (c *Cache) Free() int { return c.capacity - c.n }

// Contains reports whether the item is cached.
func (c *Cache) Contains(id int) bool { return c.slotOf(id) != 0 }

// Tick advances the logical clock and returns the new time.
func (c *Cache) Tick() int64 {
	c.clock++
	return c.clock
}

// RecordAccess notes an access to an item (hit or miss): it bumps the
// global frequency and, if cached, the entry's bookkeeping.
func (c *Cache) RecordAccess(id int) {
	c.Tick()
	c.freqAll[id]++
	if slot := c.slotOf(id); slot != 0 {
		e := c.at(slot)
		e.Freq++
		e.LastAccess = c.clock
		c.moveToTail(slot)
	}
}

// unlink removes slot from the recency list.
func (c *Cache) unlink(slot int32) {
	e := c.at(slot)
	if e.prev != 0 {
		c.at(e.prev).next = e.next
	} else {
		c.head = e.next
	}
	if e.next != 0 {
		c.at(e.next).prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = 0, 0
}

// pushTail appends slot as the most recently accessed entry.
func (c *Cache) pushTail(slot int32) {
	e := c.at(slot)
	e.prev, e.next = c.tail, 0
	if c.tail != 0 {
		c.at(c.tail).next = slot
	} else {
		c.head = slot
	}
	c.tail = slot
}

// moveToTail re-files slot as most recently accessed.
func (c *Cache) moveToTail(slot int32) {
	if c.tail == slot {
		return
	}
	c.unlink(slot)
	c.pushTail(slot)
}

// Freq returns the total observed access count of an item (cached or not).
func (c *Cache) Freq(id int) int64 { return c.freqAll[id] }

// Insert adds an item; the cache must have a free slot and the id must be
// non-negative. The entry inherits the item's global frequency so that a
// re-inserted item keeps its history (WATCHMAN-style delay-saving needs
// this).
func (c *Cache) Insert(id int, retrieval float64) error {
	if c.Free() <= 0 {
		return fmt.Errorf("%w: insert %d into full cache (capacity %d)", ErrBadCache, id, c.capacity)
	}
	if id < 0 {
		return fmt.Errorf("%w: insert negative id %d", ErrBadCache, id)
	}
	if c.Contains(id) {
		return fmt.Errorf("%w: item %d already cached", ErrBadCache, id)
	}
	c.Tick()
	if id >= len(c.index) {
		c.index = append(c.index, make([]int32, id+1-len(c.index))...)
	}
	slot := c.free
	e := c.at(slot)
	c.free = e.next
	*e = Entry{
		ID:         id,
		Retrieval:  retrieval,
		Freq:       c.freqAll[id],
		LastAccess: c.clock,
		Inserted:   c.clock,
	}
	c.index[id] = slot
	c.pushTail(slot)
	c.n++
	return nil
}

// Evict removes an item from the cache.
func (c *Cache) Evict(id int) error {
	slot := c.slotOf(id)
	if slot == 0 {
		return fmt.Errorf("%w: evict non-cached item %d", ErrBadCache, id)
	}
	c.index[id] = 0
	c.unlink(slot)
	c.at(slot).next = c.free
	c.free = slot
	c.n--
	return nil
}

// InsertLRU caches an item, evicting the least recently used entry when
// the cache is full, and reports the victim so callers can keep their
// own attribution state consistent. It is a no-op if the item is already
// cached, and on a zero-capacity cache, which stores nothing. A negative
// id is a caller bug and panics.
func (c *Cache) InsertLRU(id int, retrieval float64) (victim int, evicted bool) {
	if c.Contains(id) || c.capacity == 0 {
		return 0, false
	}
	if c.Free() == 0 {
		victim, evicted = c.at(c.head).ID, true
		if err := c.Evict(victim); err != nil {
			panic(err)
		}
	}
	if err := c.Insert(id, retrieval); err != nil {
		panic(err)
	}
	return victim, evicted
}

// public returns a copy of e with the chain links cleared.
func (e *Entry) public() Entry {
	out := *e
	out.prev, out.next = 0, 0
	return out
}

// Entry returns a copy of the entry for id.
func (c *Cache) Entry(id int) (Entry, bool) {
	slot := c.slotOf(id)
	if slot == 0 {
		return Entry{}, false
	}
	return c.at(slot).public(), true
}

// Entries returns copies of all entries, sorted by ID for determinism.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, c.n)
	for _, slot := range c.index {
		if slot != 0 {
			out = append(out, c.at(slot).public())
		}
	}
	return out
}

// IDs returns the cached item IDs, sorted ascending.
func (c *Cache) IDs() []int {
	out := make([]int, 0, c.n)
	for id, slot := range c.index {
		if slot != 0 {
			out = append(out, id)
		}
	}
	return out
}

// Flush empties the cache (the "prefetch only" simulation flushes after
// every request). Global frequencies are retained.
func (c *Cache) Flush() {
	for slot := c.head; slot != 0; slot = c.at(slot).next {
		c.index[c.at(slot).ID] = 0
	}
	c.head, c.tail, c.n = 0, 0, 0
	c.resetFree()
}

// Victim chooses an eviction victim using the policy; false if empty.
// The LRU policy is answered in O(1) from the recency list head: Tick is
// strictly monotonic so LastAccess values are unique, which makes the
// head exactly the entry the Entries() scan would pick (the ID tie-break
// can never fire).
func (c *Cache) Victim(p Policy) (int, bool) {
	if c.n == 0 {
		return 0, false
	}
	if _, ok := p.(LRU); ok {
		return c.at(c.head).ID, true
	}
	return p.Victim(c.Entries()), true
}

// Policy selects an eviction victim among cache entries. Implementations
// must be deterministic given the entries (break ties by lowest ID).
type Policy interface {
	Name() string
	// Victim returns the ID to evict; entries is non-empty.
	Victim(entries []Entry) int
}

// pickMin returns the entry minimising key, ties by lowest ID (entries are
// pre-sorted by ID, so the first minimum wins).
func pickMin(entries []Entry, key func(Entry) float64) int {
	best := 0
	bestKey := key(entries[0])
	for i := 1; i < len(entries); i++ {
		if k := key(entries[i]); k < bestKey {
			best, bestKey = i, k
		}
	}
	return entries[best].ID
}

// LRU evicts the least recently used entry.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// Victim implements Policy.
func (LRU) Victim(entries []Entry) int {
	return pickMin(entries, func(e Entry) float64 { return float64(e.LastAccess) })
}

// LFU evicts the least frequently used entry.
type LFU struct{}

// Name implements Policy.
func (LFU) Name() string { return "lfu" }

// Victim implements Policy.
func (LFU) Victim(entries []Entry) int {
	return pickMin(entries, func(e Entry) float64 { return float64(e.Freq) })
}

// FIFO evicts the oldest inserted entry.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Victim implements Policy.
func (FIFO) Victim(entries []Entry) int {
	return pickMin(entries, func(e Entry) float64 { return float64(e.Inserted) })
}

// DelaySaving evicts the entry with the lowest delay-saving profit
// freq_i·r_i (the simplified WATCHMAN metric of the paper's §5.2).
type DelaySaving struct{}

// Name implements Policy.
func (DelaySaving) Name() string { return "delay-saving" }

// Victim implements Policy.
func (DelaySaving) Victim(entries []Entry) int {
	return pickMin(entries, func(e Entry) float64 { return float64(e.Freq) * e.Retrieval })
}
