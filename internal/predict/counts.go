package predict

// This file holds the three count stores every integer-count learned
// source is built from: popularity (how often each page was seen),
// transitions (popularity per previous page — the order-1 dependency
// graph) and contexts (popularity per PPM context, kept as a tree). Every
// count is an integer and every probability is one expression,
// w·n/total, so a source's output value for a page is the same
// floating-point expression whichever store produced it. The stores'
// zero values are empty and ready to use.

// popularity counts observations per page: global page popularity, or
// the successor counts of one state or context.
type popularity struct {
	freq  map[int]int64
	total int64
}

// add counts one observation of page.
func (p *popularity) add(page int) {
	if p.freq == nil {
		p.freq = map[int]int64{}
	}
	p.freq[page]++
	p.total++
}

// blend adds w times each page's observed share to out. Each page gets
// exactly one term, so the map's iteration order cannot move a bit.
func (p *popularity) blend(out map[int]float64, w float64) {
	for page, n := range p.freq {
		out[page] += w * float64(n) / float64(p.total)
	}
}

// transitions counts order-1 transitions: edges[prev] is the popularity
// of the pages that followed prev.
type transitions struct {
	edges map[int]*popularity
}

// add counts one transition prev → next.
func (t *transitions) add(prev, next int) {
	succ := t.edges[prev]
	if succ == nil {
		if t.edges == nil {
			t.edges = map[int]*popularity{}
		}
		succ = &popularity{}
		t.edges[prev] = succ
	}
	succ.add(next)
}

// next returns the normalised successor counts of state; empty when state
// has no observed successors.
func (t *transitions) next(state int) map[int]float64 {
	out := map[int]float64{}
	if succ := t.edges[state]; succ != nil {
		succ.blend(out, 1)
	}
	return out
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
