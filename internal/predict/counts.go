package predict

// This file holds the count stores every integer-count learned source is
// built from: popularity (how often each page was seen), ranking (the
// same counts kept in warm order, for the shared aggregate's cache
// warming), transitions (popularity per previous page — the order-1
// dependency graph) and contexts (popularity per PPM context, kept as a
// tree). Every count is an integer and every probability is one
// expression, w·n/total, so a source's output value for a page is the
// same floating-point expression whichever store produced it. The
// stores' zero values are empty and ready to use.

// popularity counts observations per page: global page popularity, or
// the successor counts of one state or context. The counts live in one
// slice in first-seen order, so prediction walks a slice instead of a
// map. A page's slot is found by scanning the slice while it is short —
// most states and contexts have only a few successors — and through the
// slot map once it outgrows smallPop.
type popularity struct {
	seen  []pageCount
	slot  map[int]int // page → index into seen; nil up to smallPop pages
	total int64
}

// pageCount is one page and its observation count.
type pageCount struct {
	page int
	n    int64
}

// smallPop is the page count up to which popularity finds a slot by
// scanning instead of through its slot map.
const smallPop = 8

// add counts one observation of page.
func (p *popularity) add(page int) {
	i := p.find(page)
	if i < 0 {
		i = len(p.seen)
		p.seen = append(p.seen, pageCount{page: page})
		switch {
		case p.slot != nil:
			p.slot[page] = i
		case len(p.seen) > smallPop:
			p.slot = make(map[int]int, 2*len(p.seen))
			for j, e := range p.seen {
				p.slot[e.page] = j
			}
		}
	}
	p.seen[i].n++
	p.total++
}

// find returns page's index in seen, or -1 if it was never observed.
func (p *popularity) find(page int) int {
	if p.slot != nil {
		if i, ok := p.slot[page]; ok {
			return i
		}
		return -1
	}
	for i, e := range p.seen {
		if e.page == page {
			return i
		}
	}
	return -1
}

// freq returns the observation count of page.
func (p *popularity) freq(page int) int64 {
	if i := p.find(page); i >= 0 {
		return p.seen[i].n
	}
	return 0
}

// blend adds w times each page's observed share to out, indexed by page
// id. Each page gets exactly one term, so the walk order cannot move a
// bit.
func (p *popularity) blend(out []float64, w float64) {
	for _, e := range p.seen {
		out[e.page] += w * float64(e.n) / float64(p.total)
	}
}

// ranking counts observations per page, as popularity does, and keeps
// the pages in warm order: count descending, page id ascending. A count
// only grows by one, so an observation moves its page left only past the
// pages its new count overtakes — those one count below, and those at the
// new count with larger ids — as an LFU bucket list moves an entry to the
// next bucket. at is a dense page → position index; page ids are
// non-negative.
type ranking struct {
	order []pageCount // warm order
	at    []int32     // page → 1 + its index in order; 0 = never observed
	total int64
}

// add counts one observation of page and restores warm order.
func (r *ranking) add(page int) {
	if page >= len(r.at) {
		r.at = append(r.at, make([]int32, page+1-len(r.at))...)
	}
	i := int(r.at[page]) - 1
	if i < 0 {
		i = len(r.order)
		r.order = append(r.order, pageCount{page: page})
	}
	e := r.order[i]
	e.n++
	for ; i > 0 && warmBefore(e, r.order[i-1]); i-- {
		r.order[i] = r.order[i-1]
		r.at[r.order[i].page] = int32(i + 1)
	}
	r.order[i] = e
	r.at[page] = int32(i + 1)
	r.total++
}

// warmBefore reports whether a precedes b in warm order.
func warmBefore(a, b pageCount) bool {
	return a.n > b.n || (a.n == b.n && a.page < b.page)
}

// freq returns the observation count of page.
func (r *ranking) freq(page int) int64 {
	if uint(page) < uint(len(r.at)) {
		if i := r.at[page]; i > 0 {
			return r.order[i-1].n
		}
	}
	return 0
}

// transitions counts order-1 transitions: edges[prev] is the popularity
// of the pages that followed prev, indexed densely by page id like
// ranking.at; a page with no observed successor has a zero total.
type transitions struct {
	edges []popularity
}

// add counts one transition prev → next.
func (t *transitions) add(prev, next int) {
	if prev >= len(t.edges) {
		t.edges = append(t.edges, make([]popularity, prev+1-len(t.edges))...)
	}
	t.edges[prev].add(next)
}

// succ returns the successor counts of state, or nil when state has no
// observed successors.
func (t *transitions) succ(state int) *popularity {
	if uint(state) < uint(len(t.edges)) && t.edges[state].total > 0 {
		return &t.edges[state]
	}
	return nil
}

// nextInto writes the normalised successor counts of state into out and
// returns how many pages it wrote; zero when state has no observed
// successors. out must be zeroed.
func (t *transitions) nextInto(state int, out []float64) int {
	succ := t.succ(state)
	if succ == nil {
		return 0
	}
	succ.blend(out, 1)
	return len(succ.seen)
}

// contexts is a PPM context tree of the given order (>= 1) over the last
// order pages h[0..n-1] (oldest first). The path root → h[n−1] → h[n−2]
// → … → h[n−k] ends at the order-k context, whose popularity counts the
// pages that followed it. A context node exists only once it has been
// credited, so every node on the tree has a non-zero total.
type contexts struct {
	order   int
	root    ctxNode
	history []int      // the last min(order, observations) pages, oldest first
	path    []*ctxNode // match's result, reused across calls
	one     [1]int     // match's off-history context
}

// ctxNode is one context: the pages that followed it, and its extensions
// one page further back in time.
type ctxNode struct {
	popularity
	older map[int]*ctxNode
}

// observe credits page to the context of every order 1..min(order,
// len(history)) in one walk from the root, then appends page to the
// history.
func (c *contexts) observe(page int) {
	node := &c.root
	for i := len(c.history) - 1; i >= 0; i-- {
		next := node.older[c.history[i]]
		if next == nil {
			if node.older == nil {
				node.older = map[int]*ctxNode{}
			}
			next = &ctxNode{}
			node.older[c.history[i]] = next
		}
		next.add(page)
		node = next
	}
	if len(c.history) == c.order {
		c.history = append(c.history[:0], c.history[1:]...)
	}
	c.history = append(c.history, page)
}

// match returns the seen contexts of the page after state, shortest
// first. The explicit-state rule picks the history: the full history
// when it ends at state (the normal online case), otherwise state alone.
// The returned slice is overwritten by the next call.
func (c *contexts) match(state int) []*ctxNode {
	h := c.history
	if n := len(h); n == 0 || h[n-1] != state {
		c.one[0] = state
		h = c.one[:]
	}
	c.path = c.path[:0]
	node := &c.root
	for i := len(h) - 1; i >= 0; i-- {
		if node = node.older[h[i]]; node == nil {
			break
		}
		c.path = append(c.path, node)
	}
	return c.path
}
