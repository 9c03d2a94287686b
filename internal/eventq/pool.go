package eventq

// FreeList recycles heap-allocated nodes of one type. The discrete-event
// hot paths (schedsrv requests and in-flight transfers, the multiclient
// server's tag records) allocate one short-lived struct per event; a
// free-list turns that steady-state churn into pointer pops.
//
// Get returns a recycled node as-is (or a zeroed new one): the caller owns
// resetting whatever fields it uses. Put hands a node back; the caller must
// guarantee no other reference to it survives — the pooled-struct property
// test (pool_test.go) demonstrates the aliasing bug a premature Put causes.
// The zero value is an empty, unbounded pool.
//
// A FreeList is not safe for concurrent use; pools are owned by a single
// event-loop goroutine, like everything else in the simulators.
type FreeList[T any] struct {
	free []*T
}

// Get pops a recycled node, or allocates a zeroed one when the pool is
// empty. Recycled nodes keep their previous contents.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		p := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return p
	}
	return new(T)
}

// Put returns a node to the pool. The node must be unreachable from any
// live structure: the next Get may hand it to an unrelated caller.
func (f *FreeList[T]) Put(p *T) {
	if p == nil {
		return
	}
	f.free = append(f.free, p)
}
