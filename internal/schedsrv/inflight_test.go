package schedsrv

import (
	"fmt"
	"strings"
	"testing"

	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/rng"
)

// sliceScheduler is a test-only copy of the Scheduler's in-flight
// bookkeeping as it was before the intrusive list: start appends to a
// slice, completion searches the slice and removes the transfer with an
// order-preserving copy, and preemption, Promote and Fail scan the slice
// front to back. Around it sits just enough of the Scheduler to run the
// same scripts (no admission control, tracing, pooling or metrics, none
// of which touch the in-flight set), so TestInFlightListMatchesSlice can
// hold the list-based scheduler to it step for step.
type sliceScheduler struct {
	clock    *netsim.Clock
	cfg      Config
	disc     Discipline
	nextSeq  int64
	inFlight []*sliceTransfer
	wakeAt   float64
	failed   bool
	log      *[]string

	restartTies int // preemptions decided by seq among equal-start restarts
}

type sliceTransfer struct {
	req                        *Request
	service, startedAt, waited float64
	cancelled                  bool
}

func newSliceScheduler(clock *netsim.Clock, cfg Config, log *[]string) *sliceScheduler {
	cfg = cfg.withDefaults()
	var disc Discipline
	switch cfg.Kind {
	case KindFIFO:
		disc = newFIFO()
	case KindPriority:
		disc = newPriority()
	case KindWFQ:
		disc = newWFQ(cfg.DemandWeight, cfg.SpecWeight)
	case KindShaped:
		disc = newShaped(cfg.Rate, cfg.Burst)
	}
	return &sliceScheduler{clock: clock, cfg: cfg, disc: disc, log: log}
}

func (s *sliceScheduler) InFlight() int { return len(s.inFlight) }

func (s *sliceScheduler) Submit(r Request) bool {
	req := r
	req.EnqueuedAt = s.clock.Now()
	req.seq = s.nextSeq
	s.nextSeq++
	s.disc.Push(&req)
	if req.Demand {
		s.demandArrived()
	}
	s.dispatch()
	return true
}

func (s *sliceScheduler) demandArrived() {
	if s.cfg.Preempt && len(s.inFlight) == s.cfg.Concurrency {
		s.preemptSpeculative()
	}
}

func (s *sliceScheduler) Promote(client, page int) bool {
	if s.failed {
		return false
	}
	if s.disc.Promote(client, page) {
		s.demandArrived()
		s.dispatch()
		return true
	}
	for _, tr := range s.inFlight {
		if !tr.cancelled && !tr.req.Demand && tr.req.Client == client && tr.req.Page == page {
			tr.req.Demand = true
			return true
		}
	}
	return false
}

func (s *sliceScheduler) preemptSpeculative() {
	victim := -1
	for i, tr := range s.inFlight {
		if tr.cancelled || tr.req.Demand {
			continue
		}
		if victim < 0 || tr.startedAt > s.inFlight[victim].startedAt ||
			(tr.startedAt == s.inFlight[victim].startedAt && tr.req.seq > s.inFlight[victim].req.seq) {
			victim = i
		}
	}
	if victim < 0 {
		return
	}
	tr := s.inFlight[victim]
	// Count the preemptions only the seq tie-break could settle: another
	// candidate started at the same instant, and one of them is a restart.
	tied, restart := 0, false
	for _, cur := range s.inFlight {
		if !cur.req.Demand && cur.startedAt == tr.startedAt {
			tied++
			restart = restart || cur.req.attempt > 1
		}
	}
	if tied > 1 && restart {
		s.restartTies++
	}
	tr.cancelled = true
	s.removeInFlight(victim)
	now := s.clock.Now()
	logPreempt(s.log, tr.req.Client, tr.req.Page, now, now-tr.startedAt, len(s.inFlight))
	s.disc.(requeuer).requeueFront(tr.req)
}

func (s *sliceScheduler) dispatch() {
	if s.failed {
		return
	}
	for len(s.inFlight) < s.cfg.Concurrency {
		req, ok := s.disc.Pop(s.clock.Now())
		if !ok {
			break
		}
		s.start(req)
	}
	if len(s.inFlight) >= s.cfg.Concurrency {
		return
	}
	now := s.clock.Now()
	at, ok := s.disc.ReadyAt(now)
	if !ok || at <= now || (s.wakeAt > 0 && s.wakeAt <= at) {
		return
	}
	s.wakeAt = at
	s.clock.After(at-now, func() {
		if s.wakeAt == at {
			s.wakeAt = 0
		}
		s.dispatch()
	})
}

func (s *sliceScheduler) start(req *Request) {
	now := s.clock.Now()
	req.attempt++
	tr := &sliceTransfer{req: req, service: req.Service, startedAt: now, waited: now - req.EnqueuedAt}
	s.inFlight = append(s.inFlight, tr)
	s.clock.After(tr.service, func() { s.complete(tr) })
}

func (s *sliceScheduler) complete(tr *sliceTransfer) {
	if tr.cancelled {
		return
	}
	for i, cur := range s.inFlight {
		if cur == tr {
			s.removeInFlight(i)
			break
		}
	}
	logDone(s.log, tr.req, s.clock.Now(), tr.service, tr.waited, len(s.inFlight))
	s.dispatch()
}

func (s *sliceScheduler) removeInFlight(i int) {
	copy(s.inFlight[i:], s.inFlight[i+1:])
	s.inFlight[len(s.inFlight)-1] = nil
	s.inFlight = s.inFlight[:len(s.inFlight)-1]
}

func (s *sliceScheduler) Fail() int {
	if s.failed {
		return 0
	}
	s.failed = true
	lost := 0
	for i, tr := range s.inFlight {
		if !tr.cancelled {
			tr.cancelled = true
			lost++
		}
		s.inFlight[i] = nil
	}
	s.inFlight = s.inFlight[:0]
	lost += s.disc.Len()
	s.disc = newFIFO()
	return lost
}

func logDone(log *[]string, r *Request, now, service, waited float64, inFlight int) {
	*log = append(*log, fmt.Sprintf("done %d/%d @%v svc=%v waited=%v attempt=%d inflight=%d",
		r.Client, r.Page, now, service, waited, r.attempt, inFlight))
}

// logPreempt records a preemption victim by its request and how long its
// aborted attempt ran, which pins down the attempt's start time too.
func logPreempt(log *[]string, client, page int, now, ran float64, inFlight int) {
	*log = append(*log, fmt.Sprintf("preempt %d/%d @%v ran=%v inflight=%d", client, page, now, ran, inFlight))
}

// preemptTracer logs the list-based scheduler's preemption victims.
type preemptTracer struct {
	log *[]string
	s   *Scheduler
}

func (p preemptTracer) Enabled() bool { return true }

func (p preemptTracer) Emit(ev obs.Event) {
	if ev.Kind == obs.KindPreempt {
		logPreempt(p.log, ev.Client, ev.Page, ev.T, ev.Service, p.s.InFlight())
	}
}

// TestInFlightListMatchesSlice drives the list-based scheduler and the
// slice-based reference with the same random Submit/Promote/Fail scripts
// under every built-in discipline (priority with preemption) and
// requires identical logs: every completion in order with its timing,
// attempt and in-flight count, every preemption victim, every Promote
// verdict, the Fail lost count, and InFlight() after every scripted call.
func TestInFlightListMatchesSlice(t *testing.T) {
	cfgs := []Config{
		{Kind: KindFIFO},
		{Kind: KindPriority, Preempt: true},
		{Kind: KindWFQ},
		{Kind: KindShaped},
	}
	restartTies, fails := 0, 0
	for _, base := range cfgs {
		t.Run(string(base.Kind), func(t *testing.T) {
			for seed := uint64(1); seed <= 60; seed++ {
				r := rng.New(seed)
				cfg := base
				cfg.Concurrency = 1 + r.IntN(5)
				ops := genSchedOps(r, 120)

				var want, got []string
				var refClock, clock netsim.Clock
				ref := newSliceScheduler(&refClock, cfg, &want)
				s, err := New(&clock, cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Tracer = preemptTracer{log: &got, s: s}
				s.Done = func(r *Request, service, waited float64) {
					logDone(&got, r, clock.Now(), service, waited, s.InFlight())
				}
				drive(&refClock, ref, ops, &want)
				drive(&clock, s, ops, &got)

				if len(got) != len(want) {
					t.Fatalf("seed %d: %d log lines, reference %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d (concurrency %d): line %d\n got  %s\n want %s",
							seed, cfg.Concurrency, i, got[i], want[i])
					}
					if strings.Contains(want[i], " fail lost=") {
						fails++
					}
				}
				restartTies += ref.restartTies
			}
		})
	}
	if restartTies == 0 {
		t.Error("no preemption chose among restarts started at one instant; the seq tie-break went unexercised")
	}
	if fails == 0 {
		t.Error("no script called Fail")
	}
}

// scriptable is the entry-point set a script drives; both schedulers
// have it.
type scriptable interface {
	Submit(r Request) bool
	Promote(client, page int) bool
	Fail() int
	InFlight() int
}

// drive schedules a script on clock against s and runs the clock dry,
// logging each call's outcome.
func drive(clock *netsim.Clock, s scriptable, ops []schedOp, log *[]string) {
	for i, op := range ops {
		i, op := i, op
		clock.Schedule(op.at, func() {
			switch op.kind {
			case 's':
				s.Submit(Request{Client: op.client, Page: op.page, Service: op.service, Demand: op.demand})
				*log = append(*log, fmt.Sprintf("op %d submit inflight=%d", i, s.InFlight()))
			case 'p':
				ok := s.Promote(op.client, op.page)
				*log = append(*log, fmt.Sprintf("op %d promote %d/%d=%v inflight=%d", i, op.client, op.page, ok, s.InFlight()))
			case 'f':
				lost := s.Fail()
				*log = append(*log, fmt.Sprintf("op %d fail lost=%d inflight=%d", i, lost, s.InFlight()))
			}
		})
	}
	clock.Run()
}

// schedOp is one scripted call: a Submit, a Promote or a Fail.
type schedOp struct {
	at      float64
	kind    byte // 's'ubmit, 'p'romote, 'f'ail
	client  int
	page    int
	service float64
	demand  bool
}

// genSchedOps draws a script on a coarse integer time grid with integer
// service times, so arrivals, completions and restarts keep landing on
// the same instant — the ties the arrival-sequence tie-break settles.
func genSchedOps(r *rng.Source, n int) []schedOp {
	ops := make([]schedOp, 0, n+1)
	var submitted []schedOp
	at := 0.0
	for i := 0; i < n; i++ {
		if r.IntN(3) == 0 {
			at += float64(r.IntN(3))
		}
		if len(submitted) > 0 && r.IntN(4) == 0 {
			prev := submitted[r.IntN(len(submitted))]
			ops = append(ops, schedOp{at: at, kind: 'p', client: prev.client, page: prev.page})
			continue
		}
		op := schedOp{
			at:      at,
			kind:    's',
			client:  r.IntN(4),
			page:    i,
			service: float64(1 + r.IntN(4)),
			demand:  r.IntN(3) == 0,
		}
		submitted = append(submitted, op)
		ops = append(ops, op)
	}
	if r.IntN(2) == 0 {
		// Fail part-way through; later submits would panic, later promotes
		// must report false.
		cut := n/2 + r.IntN(n/2)
		fail := schedOp{at: ops[cut].at, kind: 'f'}
		kept := append([]schedOp{}, ops[:cut]...)
		kept = append(kept, fail)
		for _, op := range ops[cut:] {
			if op.kind == 'p' {
				kept = append(kept, op)
			}
		}
		ops = kept
	}
	return ops
}
