// Package schedsrv is the pluggable scheduling subsystem of the shared
// server: it decides which queued transfer each freed slot serves next
// (the Discipline), whether a speculative request is allowed into the
// backlog at all (the AdmissionController), and when shaping deliberately
// idles a slot to enforce per-client bandwidth.
//
// PR 1's multi-client simulation showed that under contention the paper's
// single-client access improvement collapses into queueing delay at a FIFO
// server: speculative transfers from one client queue ahead of everyone
// else's demand fetches. How the server arbitrates speculative vs. demand
// traffic dominates prefetching's net benefit at scale, so that arbitration
// is now a first-class, swappable layer with four built-in disciplines:
//
//   - KindFIFO — one queue, arrival order; the seed behaviour, extracted.
//   - KindPriority — strict demand priority: a slot never serves a
//     speculative request while a demand request is queued. With
//     Config.Preempt, a newly arrived demand may also abort the
//     most-recently-started in-flight speculative transfer (the aborted
//     work is lost and the victim restarts from scratch, mirroring
//     netsim.Link's non-resumable cancellation).
//   - KindWFQ — weighted fair queueing: each (client, class) pair is a
//     flow with class weights Config.DemandWeight / Config.SpecWeight,
//     scheduled by virtual finish tags so no client's speculation can
//     starve another client's demands.
//   - KindShaped — per-client token buckets: each client accrues
//     Config.Rate service-seconds of credit per second up to Config.Burst;
//     speculative transfers wait for credit, demand transfers run
//     immediately but draw the bucket into debt, charging a client's
//     speculation for its own demand usage. Shaping is deliberately
//     non-work-conserving.
//
// Demand arrival for a page whose speculative transfer is still queued
// promotes that request into the demand class (Scheduler.Promote), so a
// blocked client is never stuck behind the speculative backlog it is
// trying to bypass. Under FIFO promotion does not reorder anything, which
// keeps the extracted FIFO bit-for-bit identical to the seed server.
//
// A scheduler can fail and recover in place, modelling a server crash
// and repair. It is the one record of outstanding work: Fail returns every
// request it lost (in flight, queued or deferred) in arrival order, and
// Recover reopens the same scheduler with an empty backlog. Its counters
// run across failures, so a caller never folds them itself.
//
// Everything is deterministic: ties break by arrival sequence, no map is
// ever iterated, and the only clock is the caller's discrete-event clock.
package schedsrv

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"prefetch/internal/eventq"
	"prefetch/internal/obs"
)

// ErrBadConfig reports an invalid scheduler configuration.
var ErrBadConfig = errors.New("schedsrv: bad config")

// Kind names a built-in scheduling discipline.
type Kind string

// The built-in disciplines.
const (
	KindFIFO     Kind = "fifo"
	KindPriority Kind = "priority"
	KindWFQ      Kind = "wfq"
	KindShaped   Kind = "shaped"
)

// Kinds lists the built-in disciplines in canonical order.
func Kinds() []Kind { return []Kind{KindFIFO, KindPriority, KindWFQ, KindShaped} }

// Config parameterises a Scheduler.
type Config struct {
	Concurrency int  // simultaneous transfer slots (>= 1)
	Kind        Kind // discipline; "" means KindFIFO

	Preempt bool // priority only: demands abort in-flight speculative work

	DemandWeight float64 // wfq: demand-class weight (0 = default 4)
	SpecWeight   float64 // wfq: speculative-class weight (0 = default 1)

	Rate  float64 // shaped: per-client service-seconds of credit per second (0 = default 0.5)
	Burst float64 // shaped: per-client bucket depth in service-seconds (0 = default 8)

	// AdmitUtil > 0 enables admission control: speculative requests are
	// rejected (or deferred) while the sliding-window utilisation estimate
	// is at or above the threshold.
	AdmitUtil   float64
	AdmitWindow float64 // sliding window length (0 = default 50 time units)
	AdmitDefer  bool    // defer rejected requests instead of dropping them

	// Admission, when non-nil, replaces the AdmitUtil-derived controller.
	Admission AdmissionController
}

// withDefaults fills zero-valued tunables.
func (cfg Config) withDefaults() Config {
	if cfg.Kind == "" {
		cfg.Kind = KindFIFO
	}
	if cfg.DemandWeight == 0 {
		cfg.DemandWeight = 4
	}
	if cfg.SpecWeight == 0 {
		cfg.SpecWeight = 1
	}
	if cfg.Rate == 0 {
		cfg.Rate = 0.5
	}
	if cfg.Burst == 0 {
		cfg.Burst = 8
	}
	if cfg.AdmitWindow == 0 {
		cfg.AdmitWindow = 50
	}
	return cfg
}

// Validate checks the configuration (after defaulting). Checks are in
// positive form (!(v > 0) rather than v <= 0) so NaN inputs are rejected
// instead of slipping past every comparison.
func (cfg Config) Validate() error {
	c := cfg.withDefaults()
	switch {
	case c.Concurrency < 1:
		return fmt.Errorf("%w: concurrency %d", ErrBadConfig, c.Concurrency)
	case c.Kind != KindFIFO && c.Kind != KindPriority && c.Kind != KindWFQ && c.Kind != KindShaped:
		return fmt.Errorf("%w: unknown discipline %q", ErrBadConfig, c.Kind)
	case c.Preempt && c.Kind != KindPriority:
		return fmt.Errorf("%w: preemption requires the priority discipline, not %q", ErrBadConfig, c.Kind)
	case !(c.DemandWeight > 0 && c.SpecWeight > 0):
		return fmt.Errorf("%w: wfq weights %v:%v (need both > 0)", ErrBadConfig, cfg.DemandWeight, cfg.SpecWeight)
	case !(c.Rate > 0 && c.Burst > 0):
		return fmt.Errorf("%w: shaping rate %v or burst %v (need both > 0)", ErrBadConfig, cfg.Rate, cfg.Burst)
	case !(c.AdmitUtil >= 0 && c.AdmitUtil <= 1):
		return fmt.Errorf("%w: admission threshold %v outside [0, 1]", ErrBadConfig, c.AdmitUtil)
	case !(c.AdmitWindow > 0):
		return fmt.Errorf("%w: admission window %v (need > 0)", ErrBadConfig, cfg.AdmitWindow)
	}
	return nil
}

// Clock is the discrete-event clock the scheduler runs on. *netsim.Clock
// satisfies it.
type Clock interface {
	Now() float64
	After(delay float64, fn func())
}

// Request is one transfer submitted to the scheduler.
type Request struct {
	Client  int     // submitting client, a small dense id >= 0 (fifo indexes by it)
	Page    int     // page being transferred (promotion key)
	Service float64 // origin service-time demand (> 0)
	Demand  bool    // demand fetch (true) or speculative prefetch (false)

	// EnqueuedAt is stamped by Submit; the start-time wait reported to Done
	// is measured from it. Preemption restarts a transfer without
	// re-stamping, so the wait spans the aborted attempt too.
	EnqueuedAt float64

	// Tag is an opaque caller payload carried through to Done.
	Tag any

	seq     int64 // arrival sequence; the universal deterministic tie-break
	attempt int   // service starts so far; > 1 only after preemption

	// specNext is the client's next queued speculative request in the
	// fifo or priority discipline's per-client index (specIndex).
	specNext *Request
	// queuePrev and queueNext are the neighbours in the priority
	// discipline's speculative queue (reqQueue).
	queuePrev, queueNext *Request
}

// Attempt returns the 1-based service attempt, valid inside the
// ServiceTime and OnStart hooks: 1 on the first start, higher after
// preemption restarts. Callers counting logical requests should count
// only Attempt() == 1.
func (r *Request) Attempt() int { return r.attempt }

// Discipline orders the server backlog: Push admits a request to the
// queue, Pop yields the request a free slot should serve at time now.
// Implementations must be deterministic: equal-priority ties break by
// arrival sequence.
type Discipline interface {
	Name() string
	// Push adds a request to the backlog.
	Push(r *Request)
	// Pop removes and returns the request to serve at time now. ok=false
	// means no queued request is eligible right now; the backlog may still
	// be non-empty under a non-work-conserving discipline (shaping).
	Pop(now float64) (r *Request, ok bool)
	// ReadyAt returns the earliest time >= now at which a queued request
	// becomes eligible to start. ok=false means the backlog is empty.
	ReadyAt(now float64) (at float64, ok bool)
	// Promote reclassifies the queued speculative request for (client,
	// page) as demand traffic, if present, and reports whether it did.
	Promote(client, page int) bool
	// Len returns the number of queued (not in-flight) requests.
	Len() int
	// Backlog appends every queued request to dst, in no particular
	// order, and returns the extended slice.
	Backlog(dst []*Request) []*Request
}

// requeuer is implemented by disciplines that can take back a preempted
// request at the head of its class queue.
type requeuer interface {
	requeueFront(r *Request)
}

// transfer is an in-flight request occupying a slot. Transfers are pooled
// (eventq.FreeList): each one is released back exactly once, when its
// completion event fires — normally or as a preemption/failure orphan —
// so a pooled node is never reused while a clock event still holds it.
type transfer struct {
	req       *Request
	service   float64 // actual service time (after the ServiceTime hook)
	startedAt float64
	waited    float64 // queueing delay reported to Done
	cancelled bool    // preempted; the pending completion event is orphaned

	// prev/next link the scheduler's in-flight list. A transfer is on the
	// list from its start until it completes, is preempted or is failed,
	// and both links are nil whenever it is off the list — in particular
	// whenever it sits in the pool.
	prev, next *transfer

	// fire is the completion callback, allocated once per pooled node and
	// reused across recycles — the per-transfer closure that used to be
	// the scheduler's largest allocation site.
	fire func()
}

// Scheduler owns the server's transfer slots and delegates every dequeue
// and placement decision to its Discipline and AdmissionController.
type Scheduler struct {
	clock Clock
	cfg   Config
	disc  Discipline
	adm   AdmissionController
	util  *utilWindow

	// ServiceTime, when non-nil, maps a request's origin service demand to
	// the actual service time at the moment the transfer starts (the
	// multiclient server uses it for shared-cache hits). Called exactly
	// once per transfer start, including preempted restarts.
	ServiceTime func(r *Request) float64

	// Done is invoked when a transfer completes: service is the actual
	// service time, waited the queueing delay from Submit to service start.
	Done func(r *Request, service, waited float64)

	// OnStart, when non-nil, observes every transfer start (test hook).
	OnStart func(r *Request)

	// Tracer, when non-nil, receives the scheduling decision trace:
	// sq_enqueue/sq_dequeue/sq_preempt/sq_promote, the admission
	// verdicts, and queue-depth samples on every Snapshot. Set it with
	// obs.Active so a disabled tracer stays nil and the hot paths pay
	// only a nil check.
	Tracer obs.Tracer

	nextSeq int64
	// The in-flight list: every started transfer that has not completed,
	// been preempted or been failed, in start order (head = oldest). start
	// appends at the tail and every exit unlinks in O(1), so walking it
	// from the head visits transfers in exactly the order an
	// order-preserving slice would — the order Promote and Fail scan in;
	// preemption walks it back from the tail. inCount is its length, the
	// occupied-slot count.
	inHead, inTail *transfer
	inCount        int
	deferred       []*Request
	queuedDemand   int

	// Free-lists for the per-event structs. Requests are recycled after
	// their Done callback returns (or on an admission drop); transfers
	// when their completion event fires. Requests Fail returns belong to
	// the caller and are never recycled.
	reqPool eventq.FreeList[Request]
	trPool  eventq.FreeList[transfer]

	wakeAt      float64 // earliest outstanding shaping wake-up, 0 = none
	deferWakeAt float64 // outstanding deferred-retry wake-up, 0 = none
	// epoch counts failures. A wake-up or retry closure remembers the
	// epoch it was planted in and returns at once if Fail has moved it since,
	// so no closure from before a failure acts on the recovered scheduler.
	epoch int

	failed bool // between Fail and Recover: no new work is accepted

	// busyTime is the current incarnation's service sum; Fail closes it
	// into priorBusy, so BusyTime adds one sum per incarnation.
	busyTime, priorBusy float64

	started       int64
	completed     int64
	specCompleted int64
	preemptions   int64
	dropped       int64
	deferredTotal int64
}

// New builds a scheduler for the configured discipline on the given clock.
func New(clock Clock, cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	adm := cfg.Admission
	if adm == nil && cfg.AdmitUtil > 0 {
		adm = UtilizationGate{Threshold: cfg.AdmitUtil, DeferInstead: cfg.AdmitDefer}
	}
	return &Scheduler{
		clock: clock,
		cfg:   cfg,
		disc:  newDiscipline(cfg),
		adm:   adm,
		util:  newUtilWindow(cfg.AdmitWindow, cfg.Concurrency),
	}, nil
}

// newDiscipline builds an empty backlog of the configured (defaulted)
// kind.
func newDiscipline(cfg Config) Discipline {
	switch cfg.Kind {
	case KindPriority:
		return newPriority()
	case KindWFQ:
		return newWFQ(cfg.DemandWeight, cfg.SpecWeight)
	case KindShaped:
		return newShaped(cfg.Rate, cfg.Burst)
	}
	return newFIFO()
}

// Discipline returns the active discipline's name.
func (s *Scheduler) Discipline() string { return s.disc.Name() }

// Submit offers a request to the scheduler. It returns false when the
// admission controller drops the request: the transfer will never start
// and Done will never fire for it. Any other outcome (queued, deferred,
// started) returns true and guarantees an eventual Done callback.
func (s *Scheduler) Submit(r Request) bool {
	if s.failed {
		panic(fmt.Sprintf("schedsrv: submit for page %d after Fail", r.Page))
	}
	if r.Service <= 0 {
		panic(fmt.Sprintf("schedsrv: request for page %d with service %v", r.Page, r.Service))
	}
	req := s.reqPool.Get()
	*req = r
	req.EnqueuedAt = s.clock.Now()
	req.seq = s.nextSeq
	s.nextSeq++
	if !req.Demand && s.adm != nil {
		util := s.util.estimate(s.clock.Now())
		switch s.adm.Admit(*req, s.clock.Now(), util) {
		case Drop:
			s.dropped++
			s.emitVerdict(obs.KindDrop, req, util)
			s.release(req)
			return false
		case Defer:
			s.deferred = append(s.deferred, req)
			s.deferredTotal++
			s.emitVerdict(obs.KindDefer, req, util)
			// The server may already be idle (the window estimate lags),
			// in which case no completion will ever re-offer this.
			s.scheduleDeferRetry(s.clock.Now())
			return true
		case Admit:
			s.emitVerdict(obs.KindAdmit, req, util)
		}
	}
	s.push(req)
	if req.Demand {
		s.demandArrived()
	}
	s.dispatch()
	return true
}

// demandArrived applies the preemption policy when demand traffic joins
// the backlog (by submission or by promotion of a queued prefetch) while
// every slot is busy.
func (s *Scheduler) demandArrived() {
	if s.cfg.Preempt && s.inCount == s.cfg.Concurrency {
		s.preemptSpeculative()
	}
}

// Promote reclassifies the outstanding speculative transfer for (client,
// page) as demand traffic: queued requests move to the demand class of the
// discipline; an in-flight transfer is shielded from preemption. It
// reports whether anything was found.
func (s *Scheduler) Promote(client, page int) bool {
	if s.failed {
		return false
	}
	if s.disc.Promote(client, page) {
		s.queuedDemand++
		s.emitPromote(client, page, "queued")
		s.demandArrived() // same preemption rights as a submitted demand
		s.dispatch()      // a reordering discipline may now prefer this request
		return true
	}
	for tr := s.inHead; tr != nil; tr = tr.next {
		if !tr.req.Demand && tr.req.Client == client && tr.req.Page == page {
			tr.req.Demand = true
			s.emitPromote(client, page, "inflight")
			return true
		}
	}
	for _, req := range s.deferred {
		if req.Client == client && req.Page == page {
			req.Demand = true
			s.emitPromote(client, page, "deferred")
			s.undefer(req)
			return true
		}
	}
	return false
}

// emitPromote traces one promotion, noting where the speculative
// request was found (queued, inflight, deferred).
func (s *Scheduler) emitPromote(client, page int, site string) {
	if s.Tracer == nil {
		return
	}
	ev := obs.Ev(s.clock.Now(), obs.KindPromote, client)
	ev.Page = page
	ev.Note = site
	s.Tracer.Emit(ev)
}

// undefer moves a deferred request into the discipline immediately
// (promotion made it demand traffic, which admission never gates).
func (s *Scheduler) undefer(req *Request) {
	kept := s.deferred[:0]
	for _, d := range s.deferred {
		if d != req {
			kept = append(kept, d)
		}
	}
	// Zero the tail slot so the dropped pointer is not retained.
	if len(kept) < len(s.deferred) {
		s.deferred[len(s.deferred)-1] = nil
	}
	s.deferred = kept
	s.push(req)
	s.demandArrived()
	s.dispatch()
}

// push hands a request to the discipline and maintains the demand census.
func (s *Scheduler) push(req *Request) {
	if req.Demand {
		s.queuedDemand++
	}
	s.disc.Push(req)
	if s.Tracer != nil {
		ev := obs.Ev(s.clock.Now(), obs.KindEnqueue, req.Client)
		ev.Page = req.Page
		ev.Demand = req.Demand
		ev.Service = req.Service
		ev.Queued = s.disc.Len()
		ev.InFlight = s.inCount
		s.Tracer.Emit(ev)
	}
}

// emitVerdict traces one admission decision on a speculative request.
func (s *Scheduler) emitVerdict(kind obs.Kind, req *Request, util float64) {
	if s.Tracer == nil {
		return
	}
	ev := obs.Ev(s.clock.Now(), kind, req.Client)
	ev.Page = req.Page
	ev.Util = util
	s.Tracer.Emit(ev)
}

// preemptSpeculative aborts the most-recently-started in-flight
// speculative transfer, if any: its elapsed service counts as busy time
// (the bandwidth really was spent), the remainder is discarded, and the
// request restarts from scratch at the head of its class queue.
//
// The in-flight list is in start order, so startedAt never decreases
// along it: the walk back from the tail takes the first speculative
// transfer and goes on only through transfers that started at the same
// time, among which the highest seq wins.
func (s *Scheduler) preemptSpeculative() {
	var tr *transfer
	for cur := s.inTail; cur != nil; cur = cur.prev {
		if tr != nil && cur.startedAt != tr.startedAt {
			break
		}
		if !cur.req.Demand && (tr == nil || cur.req.seq > tr.req.seq) {
			tr = cur
		}
	}
	if tr == nil {
		return
	}
	now := s.clock.Now()
	tr.cancelled = true
	s.unlinkInFlight(tr)
	s.busyTime += now - tr.startedAt
	s.util.transition(now, s.inCount)
	s.preemptions++
	if s.Tracer != nil {
		ev := obs.Ev(now, obs.KindPreempt, tr.req.Client)
		ev.Page = tr.req.Page
		ev.Service = now - tr.startedAt
		s.Tracer.Emit(ev)
	}
	if rq, ok := s.disc.(requeuer); ok {
		rq.requeueFront(tr.req)
	} else {
		s.disc.Push(tr.req)
	}
}

// dispatch starts eligible queued requests while free slots remain, then
// arranges a wake-up if the discipline is holding work for later.
func (s *Scheduler) dispatch() {
	for s.inCount < s.cfg.Concurrency {
		req, ok := s.disc.Pop(s.clock.Now())
		if !ok {
			break
		}
		if req.Demand {
			s.queuedDemand--
		}
		s.start(req)
	}
	s.scheduleWake()
}

// scheduleWake plants a clock event at the discipline's next eligibility
// time. Work-conserving disciplines never need one (ReadyAt is always
// now); shaping uses it to resume when a token bucket refills.
func (s *Scheduler) scheduleWake() {
	if s.inCount >= s.cfg.Concurrency {
		return // a completion will re-dispatch
	}
	now := s.clock.Now()
	at, ok := s.disc.ReadyAt(now)
	if !ok || at <= now {
		// Empty backlog, or eligible work the dispatch loop already took.
		return
	}
	if s.wakeAt > 0 && s.wakeAt <= at {
		return // an earlier or equal wake-up is already outstanding
	}
	s.wakeAt = at
	epoch := s.epoch
	s.clock.After(at-now, func() {
		if s.epoch != epoch {
			return
		}
		if s.wakeAt == at {
			s.wakeAt = 0
		}
		s.dispatch()
	})
}

// start occupies a slot with req.
func (s *Scheduler) start(req *Request) {
	now := s.clock.Now()
	waited := now - req.EnqueuedAt
	req.attempt++
	service := req.Service
	if s.ServiceTime != nil {
		service = s.ServiceTime(req)
	}
	if s.OnStart != nil {
		s.OnStart(req)
	}
	if s.Tracer != nil {
		ev := obs.Ev(now, obs.KindDequeue, req.Client)
		ev.Page = req.Page
		ev.Demand = req.Demand
		ev.Service = service
		ev.Waited = waited
		ev.Attempt = req.attempt
		s.Tracer.Emit(ev)
	}
	s.started++
	tr := s.trPool.Get()
	tr.req, tr.service, tr.startedAt, tr.waited, tr.cancelled = req, service, now, waited, false
	if tr.fire == nil {
		trc := tr
		tr.fire = func() { s.complete(trc) }
	}
	s.linkInFlight(tr)
	s.util.transition(now, s.inCount)
	s.clock.After(service, tr.fire)
}

// release recycles a request whose lifecycle has fully ended. The Tag is
// cleared so the pool does not pin caller payloads.
func (s *Scheduler) release(req *Request) {
	req.Tag = nil
	s.reqPool.Put(req)
}

// complete finishes a transfer, re-examines deferred speculative work, and
// refills the freed slot. It is the single point at which pooled transfer
// nodes are recycled: every started transfer's completion event fires
// exactly once, cancelled (preempted or failed — whose request is either
// requeued or abandoned, never recycled here) or not.
func (s *Scheduler) complete(tr *transfer) {
	if tr.cancelled {
		tr.req = nil
		s.trPool.Put(tr)
		return // orphaned by a preemption
	}
	s.unlinkInFlight(tr)
	now := s.clock.Now()
	s.busyTime += tr.service
	s.util.transition(now, s.inCount)
	s.completed++
	if !tr.req.Demand {
		s.specCompleted++
	}
	req, service, waited := tr.req, tr.service, tr.waited
	tr.req = nil
	s.trPool.Put(tr)
	s.readmitDeferred(now)
	if s.Done != nil {
		s.Done(req, service, waited)
	}
	s.dispatch()
	s.release(req)
}

// linkInFlight appends a starting transfer at the tail of the in-flight
// list.
func (s *Scheduler) linkInFlight(tr *transfer) {
	tr.prev, tr.next = s.inTail, nil
	if s.inTail != nil {
		s.inTail.next = tr
	} else {
		s.inHead = tr
	}
	s.inTail = tr
	s.inCount++
}

// unlinkInFlight removes tr from the in-flight list in O(1), leaving the
// others in start order, and clears its links.
func (s *Scheduler) unlinkInFlight(tr *transfer) {
	if tr.prev != nil {
		tr.prev.next = tr.next
	} else {
		s.inHead = tr.next
	}
	if tr.next != nil {
		tr.next.prev = tr.prev
	} else {
		s.inTail = tr.prev
	}
	tr.prev, tr.next = nil, nil
	s.inCount--
}

// readmitDeferred re-offers deferred requests, oldest first, now that a
// completion has lowered the utilisation estimate. Re-offers stop at the
// first request the controller still holds back, preserving FIFO order
// among deferred work; held-back work gets a retry wake-up, because with
// no further completions the window estimate only decays with time and
// nothing else would ever re-offer it.
func (s *Scheduler) readmitDeferred(now float64) {
	for len(s.deferred) > 0 {
		req := s.deferred[0]
		if s.adm != nil && s.adm.Admit(*req, now, s.util.estimate(now)) != Admit {
			s.scheduleDeferRetry(now)
			return
		}
		s.deferred[0] = nil
		s.deferred = s.deferred[1:]
		s.push(req)
	}
}

// scheduleDeferRetry plants one outstanding re-offer event a quarter
// window ahead — the coarsest cadence that still tracks the estimate's
// linear decay as busy segments slide out of the window.
func (s *Scheduler) scheduleDeferRetry(now float64) {
	at := now + s.cfg.AdmitWindow/4
	if s.deferWakeAt > 0 && s.deferWakeAt <= at {
		return
	}
	s.deferWakeAt = at
	epoch := s.epoch
	s.clock.After(at-now, func() {
		if s.epoch != epoch {
			return
		}
		if s.deferWakeAt == at {
			s.deferWakeAt = 0
		}
		s.readmitDeferred(s.clock.Now())
		s.dispatch()
	})
}

// Feedback is a point-in-time congestion snapshot of the scheduler — the
// signal the server feeds back to adaptive clients so they can re-price
// their speculation against the load everyone is experiencing, not just
// their own private link. Reading a snapshot never mutates the scheduler,
// so feedback consumers cannot perturb the timeline.
type Feedback struct {
	Utilization float64 // sliding-window utilisation estimate at the snapshot

	Queued       int // requests held by the discipline
	QueuedDemand int // of those, demand class
	InFlight     int // occupied transfer slots

	DeferredTotal int64 // cumulative speculative deferrals
}

// Snapshot returns the congestion feedback at now. When tracing, each
// snapshot also emits one queue_depth sample — the tracer observes the
// read, the scheduler's own state is untouched.
func (s *Scheduler) Snapshot(now float64) Feedback {
	fb := Feedback{
		Utilization:   s.util.estimate(now),
		Queued:        s.disc.Len(),
		QueuedDemand:  s.queuedDemand,
		InFlight:      s.inCount,
		DeferredTotal: s.deferredTotal,
	}
	if s.Tracer != nil {
		ev := obs.Ev(now, obs.KindQueueDepth, obs.ServerClient)
		ev.Queued = fb.Queued
		ev.QueuedDemand = fb.QueuedDemand
		ev.InFlight = fb.InFlight
		ev.Util = fb.Utilization
		s.Tracer.Emit(ev)
	}
	return fb
}

// Fail stops the scheduler, modelling a server crash, and returns the
// outstanding requests it lost — in flight, queued and deferred — in
// arrival order with their tags; they belong to the caller now, and Done
// never fires for them. Cancelled transfers' completion events are
// orphaned as in a preemption, and their elapsed service counts as busy
// time. Wake-ups and retries planted before Fail become no-ops. Until
// Recover, Submit panics, Promote reports false and Snapshot reads the
// failed incarnation's utilisation window. A second Fail returns nil.
func (s *Scheduler) Fail() []*Request {
	if s.failed {
		return nil
	}
	s.failed = true
	s.epoch++
	now := s.clock.Now()
	lost := make([]*Request, 0, s.inCount+s.disc.Len()+len(s.deferred))
	for tr := s.inHead; tr != nil; {
		next := tr.next
		tr.cancelled = true
		s.busyTime += now - tr.startedAt
		tr.prev, tr.next = nil, nil
		lost = append(lost, tr.req)
		tr = next
	}
	s.inHead, s.inTail, s.inCount = nil, nil, 0
	s.util.transition(now, 0)
	lost = s.disc.Backlog(lost)
	s.disc = newDiscipline(s.cfg)
	lost = append(lost, s.deferred...)
	clear(s.deferred)
	s.deferred = s.deferred[:0]
	s.queuedDemand = 0
	s.wakeAt, s.deferWakeAt = 0, 0
	s.priorBusy += s.busyTime
	s.busyTime = 0
	slices.SortFunc(lost, func(a, b *Request) int { return cmp.Compare(a.seq, b.seq) })
	return lost
}

// Recover reopens a failed scheduler, modelling the repaired server: it
// accepts work again on the empty backlog Fail left, with its
// utilisation window emptied in place. Counters keep running across the
// failure. Recover on a scheduler that has not failed does nothing.
func (s *Scheduler) Recover() {
	if !s.failed {
		return
	}
	s.failed = false
	s.util.reset()
}

// Failed reports whether the scheduler is down: Fail was called and
// Recover has not been since.
func (s *Scheduler) Failed() bool { return s.failed }

// Queued returns the number of requests held by the discipline.
func (s *Scheduler) Queued() int { return s.disc.Len() }

// QueuedDemand returns how many queued requests are demand class.
func (s *Scheduler) QueuedDemand() int { return s.queuedDemand }

// InFlight returns the number of occupied transfer slots.
func (s *Scheduler) InFlight() int { return s.inCount }

// DeferredNow returns the number of currently deferred requests.
func (s *Scheduler) DeferredNow() int { return len(s.deferred) }

// BusyTime returns accumulated slot-seconds of service, including the
// elapsed part of preempted and failed transfers: the sum over
// incarnations of each incarnation's own sum.
func (s *Scheduler) BusyTime() float64 { return s.priorBusy + s.busyTime }

// Started returns the number of transfer starts (restarts included).
func (s *Scheduler) Started() int64 { return s.started }

// Completed returns the number of completed transfers.
func (s *Scheduler) Completed() int64 { return s.completed }

// SpecCompleted returns completed transfers that were still speculative
// class at completion time.
func (s *Scheduler) SpecCompleted() int64 { return s.specCompleted }

// Preemptions returns how many speculative transfers were aborted.
func (s *Scheduler) Preemptions() int64 { return s.preemptions }

// Dropped returns how many speculative requests admission rejected.
func (s *Scheduler) Dropped() int64 { return s.dropped }

// Deferred returns how many speculative requests admission deferred.
func (s *Scheduler) Deferred() int64 { return s.deferredTotal }
