// Package eventq provides a generic binary-heap priority queue, used by
// schedsrv's WFQ discipline and by bench/'s layer replay. The operation
// mix — push an element with a priority, pop the minimum, peek — sits on
// paths that grow linearly with the number of concurrent clients, where a
// sorted-slice insert degrades to O(n) per operation while the heap stays
// O(log n); BenchmarkEventQueue documents that gap. netsim's Clock, the
// hottest queue of all, keeps its own inline 4-ary heap instead, because
// calling less through a func value costs it more than the heap itself
// (BenchmarkClockChurn times it).
//
// The queue is ordered by a caller-supplied strict less function. Callers
// that need FIFO behaviour among equal priorities must fold a sequence
// number into less (as schedsrv's WFQ does); the heap itself does not
// promise stability.
package eventq

// Queue is a binary min-heap ordered by the less function given to New.
type Queue[T any] struct {
	less  func(a, b T) bool
	items []T
}

// New returns an empty queue ordered by less.
func New[T any](less func(a, b T) bool) *Queue[T] {
	return &Queue[T]{less: less}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push adds v to the queue in O(log n).
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.up(len(q.items) - 1)
}

// Items returns the queued elements in heap order, not pop order. The
// slice aliases the queue: read it before the next Push or Pop.
func (q *Queue[T]) Items() []T { return q.items }

// Peek returns the minimum element without removing it. It reports false on
// an empty queue.
func (q *Queue[T]) Peek() (T, bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	return q.items[0], true
}

// Pop removes and returns the minimum element in O(log n). It reports false
// on an empty queue.
func (q *Queue[T]) Pop() (T, bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	min := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	var zero T
	q.items[last] = zero // release the reference for the GC
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return min, true
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.items[i], q.items[parent]) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		child := left
		if right := left + 1; right < n && q.less(q.items[right], q.items[left]) {
			child = right
		}
		if !q.less(q.items[child], q.items[i]) {
			return
		}
		q.items[i], q.items[child] = q.items[child], q.items[i]
		i = child
	}
}
