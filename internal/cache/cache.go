// Package cache provides the multiclient client and server caches: a
// fixed-capacity, equal-item-size slab ordered by an intrusive recency
// list, whose head is the LRU victim. Callers probe it (Contains), touch
// it (RecordAccess) and fill it (Insert, InsertLRU); no operation lists
// or scans the cached entries. The paper's prefetch-cache
// integration (§5) does not use it: its Pr-arbitration and LFU and
// delay-saving sub-arbitration live in internal/core, and the replay in
// internal/sim keeps its own per-item cache state and access counts.
package cache

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadCache reports invalid cache construction or use.
var ErrBadCache = errors.New("cache: bad cache operation")

// Entry is the bookkeeping record for one cached item. Retrieval is
// stored as inserted; no eviction order reads it.
type Entry struct {
	ID        int
	Retrieval float64 // r_i, retrieval time if it had to be refetched

	// prev/next link the entry's slab slot into the cache's recency list
	// (while cached) or its free chain (while free), as slot+1 with 0 for
	// none. Keeping the recency list intrusive makes the LRU victim an
	// O(1) head read instead of a copy-and-scan of every entry — the
	// dominant cost of every eviction at fleet scale.
	prev, next int32
}

// maxCapacity keeps every slot+1 representable in an int32 link.
const maxCapacity = math.MaxInt32 - 1

// Cache is a fixed-capacity set of equal-size items in recency order.
// It is not safe for concurrent use; the simulators are single-goroutine
// per replica and merge results afterwards.
//
// Item ids are small dense non-negative ints (page ids), so the cache is
// two arrays rather than a map: a slab of capacity entries allocated once
// in New, and an index from id to slab slot. Every slot is in exactly one
// of two chains threaded through Entry.prev/next: the recency list (the
// slot is cached and index[ID] names it) or the free chain. Probes are
// array reads.
type Cache struct {
	capacity int
	slab     []Entry
	// index maps an item id to its slab slot+1, 0 meaning not cached. It
	// grows on demand to the largest id ever inserted.
	index []int32
	n     int // cached items

	// head/tail bound the recency list (head = least recently inserted
	// or accessed), as slot+1.
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
	}
	// Chain every slab slot, in slot order, onto the free chain.
	for i := range c.slab {
		c.slab[i].next = int32(i + 2)
	}
	if capacity > 0 {
		c.slab[capacity-1].next = 0
		c.free = 1
	}
	return c, nil
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

// RecordAccess notes an access to an item: a cached item becomes the
// most recently used, and a miss changes nothing.
func (c *Cache) RecordAccess(id int) {
	if slot := c.slotOf(id); slot != 0 {
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

// Insert adds an item as the most recently used; the cache must have a
// free slot and the id must be non-negative.
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
	if id >= len(c.index) {
		c.index = append(c.index, make([]int32, id+1-len(c.index))...)
	}
	slot := c.free
	e := c.at(slot)
	c.free = e.next
	*e = Entry{ID: id, Retrieval: retrieval}
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

// LRU names the least-recently-used victim for Victim.
type LRU struct{}

// Victim returns the least recently used item, the recency list's head;
// false if the cache is empty.
func (c *Cache) Victim(LRU) (int, bool) {
	if c.n == 0 {
		return 0, false
	}
	return c.at(c.head).ID, true
}
