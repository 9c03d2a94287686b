package cache

// public returns a copy of e with the chain links cleared.
func (e *Entry) public() Entry {
	out := *e
	out.prev, out.next = 0, 0
	return out
}

// Entries returns copies of all entries, sorted by ID: it walks the id
// index, so the order needs no sort. The tests read the cache's contents
// through it.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, c.n)
	for _, slot := range c.index {
		if slot != 0 {
			out = append(out, c.at(slot).public())
		}
	}
	return out
}
