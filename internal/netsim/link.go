package netsim

import "fmt"

// Transfer is one retrieval occupying the link for Duration time units.
type Transfer struct {
	ID       int
	Duration float64
}

// Link is a serial FIFO network pipe: one transfer at a time, queued
// transfers start when their predecessor completes. It supports cancelling
// queued or in-flight transfers (for the preemptive extension).
type Link struct {
	clock *Clock

	queue     []Transfer
	inFlight  bool
	current   Transfer
	started   float64 // start time of the in-flight transfer
	epoch     int64   // invalidates completion events after a cancel
	busyTotal float64 // accumulated busy time of completed/cancelled work

	// OnComplete is invoked when a transfer fully completes (not when
	// cancelled), before the next queued transfer starts.
	OnComplete func(tr Transfer, at float64)
}

// NewLink creates a link driven by the clock.
func NewLink(clock *Clock) *Link {
	return &Link{clock: clock}
}

// Enqueue appends a transfer to the pipe. Duration must be positive.
func (l *Link) Enqueue(tr Transfer) error {
	if tr.Duration <= 0 {
		return fmt.Errorf("netsim: transfer %d with duration %v", tr.ID, tr.Duration)
	}
	l.queue = append(l.queue, tr)
	l.maybeStart()
	return nil
}

// Busy reports whether a transfer is in flight.
func (l *Link) Busy() bool { return l.inFlight }

// Backlog returns the remaining work on the link: the unfinished part of
// the in-flight transfer plus all queued durations.
func (l *Link) Backlog() float64 {
	var w float64
	if l.inFlight {
		elapsed := l.clock.Now() - l.started
		if remaining := l.current.Duration - elapsed; remaining > 0 {
			w += remaining
		}
	}
	for _, tr := range l.queue {
		w += tr.Duration
	}
	return w
}

// BusyTime returns the total time the link has spent transferring,
// including the elapsed part of an in-flight transfer.
func (l *Link) BusyTime() float64 {
	t := l.busyTotal
	if l.inFlight {
		t += l.clock.Now() - l.started
	}
	return t
}

// CancelAll drops every queued transfer and aborts the in-flight one. Work
// already transferred counts toward BusyTime; the aborted remainder is
// discarded (retrievals are not resumable).
func (l *Link) CancelAll() {
	l.queue = nil
	if l.inFlight {
		l.busyTotal += l.clock.Now() - l.started
		l.inFlight = false
		l.epoch++ // orphan the pending completion event
	}
}

// CancelQueued drops queued transfers matching keep(tr) == false without
// touching the in-flight transfer.
func (l *Link) CancelQueued(keep func(Transfer) bool) {
	kept := l.queue[:0]
	for _, tr := range l.queue {
		if keep(tr) {
			kept = append(kept, tr)
		}
	}
	l.queue = kept
}

func (l *Link) maybeStart() {
	if l.inFlight || len(l.queue) == 0 {
		return
	}
	l.current = l.queue[0]
	l.queue = l.queue[1:]
	l.started = l.clock.Now()
	l.inFlight = true
	epoch := l.epoch
	tr := l.current
	l.clock.After(tr.Duration, func() {
		if l.epoch != epoch || !l.inFlight {
			return // cancelled in the meantime
		}
		l.inFlight = false
		l.busyTotal += tr.Duration
		if l.OnComplete != nil {
			l.OnComplete(tr, l.clock.Now())
		}
		l.maybeStart()
	})
}
