package bench

import (
	"time"

	"prefetch/internal/adaptive"
	"prefetch/internal/obs"
)

// Client-side operations the layer replays consume, in trace order.
const (
	opNext    uint8 = iota // predict_next: a plan ranked candidates from Page
	opObserve              // predict_observe: the demand access to Page
	opDone                 // transfer_done: Page arrived at the client
)

// clientOp is the compact record of one client-side trace event. Round,
// cands, viewing and lambda are set on opNext only: the viewing time and λ
// are copied from the round_start and lambda events that precede it.
type clientOp struct {
	kind    uint8
	client  int32
	round   int32
	page    int32
	cands   int32
	viewing float64
	lambda  float64
}

// Scheduler operations, replayed per replica at their recorded times.
const (
	schedEnqueue uint8 = iota
	schedPromote
	schedSnapshot
	schedFail
	schedRecover
)

// schedOp is the compact record of one scheduler input. Service is the
// service time the transfer's first start actually took (after any server
// cache hit), taken from its sq_dequeue event.
type schedOp struct {
	t       float64
	service float64
	client  int32
	page    int32
	replica int16 // 0-based
	kind    uint8
	demand  bool
}

// lambdaOp is one controller update: the feedback a client observed.
type lambdaOp struct {
	client int
	fb     adaptive.Feedback
}

type enqKey struct {
	replica int16
	client  int32
	page    int32
}

// recorder is the benchmark's obs.Tracer for the traced pass. The mc-wide
// trace is about a million events, so it keeps compact per-kind records
// and counts instead of whole events. It also re-encodes every event
// through obs.NewWriter in batches, timing only the encoding.
type recorder struct {
	counts map[obs.Kind]int64

	client []clientOp
	sched  []schedOp
	lambda []lambdaOp

	// snapshots makes queue_depth samples scheduler Snapshot calls: only
	// for workloads whose untraced run reads the snapshot too.
	snapshots bool

	viewing, lambdaNow []float64 // per client, latest round's values
	lastEnq            map[enqKey]int

	queuedSum   int64
	inflightMax int
	preemptLost float64
	doneService float64
	failLost    int64

	batch  []obs.Event
	w      *obs.Writer
	bytes  byteCounter
	encode time.Duration
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

func newRecorder(clients int, snapshots bool) *recorder {
	r := &recorder{
		counts:    map[obs.Kind]int64{},
		snapshots: snapshots,
		viewing:   make([]float64, clients),
		lambdaNow: make([]float64, clients),
		lastEnq:   map[enqKey]int{},
		batch:     make([]obs.Event, 0, 4096),
	}
	r.w = obs.NewWriter(&r.bytes)
	return r
}

// Enabled implements obs.Tracer.
func (*recorder) Enabled() bool { return true }

// Emit implements obs.Tracer.
func (r *recorder) Emit(ev obs.Event) {
	r.counts[ev.Kind]++
	r.batch = append(r.batch, ev)
	if len(r.batch) == cap(r.batch) {
		r.encodeBatch()
	}
	var rep int16
	if ev.Replica > 0 {
		rep = int16(ev.Replica - 1)
	}
	c := int32(ev.Client)
	switch ev.Kind {
	case obs.KindRoundStart:
		r.viewing[ev.Client] = ev.Viewing
	case obs.KindLambda:
		r.lambdaNow[ev.Client] = ev.Lambda
		r.lambda = append(r.lambda, lambdaOp{client: ev.Client, fb: adaptive.Feedback{
			Round: ev.Round, Utilization: ev.Util, QueuedDemand: ev.QueuedDemand,
			DemandDelay: ev.Waited, Dropped: ev.Dropped, Deferred: ev.Deferred,
		}})
	case obs.KindPredictNext:
		r.client = append(r.client, clientOp{kind: opNext, client: c, round: int32(ev.Round), page: int32(ev.Page),
			cands: int32(ev.Cands), viewing: r.viewing[ev.Client], lambda: r.lambdaNow[ev.Client]})
	case obs.KindPredictObserve:
		r.client = append(r.client, clientOp{kind: opObserve, client: c, page: int32(ev.Page)})
	case obs.KindTransferDone:
		r.client = append(r.client, clientOp{kind: opDone, client: c, page: int32(ev.Page)})
		r.doneService += ev.Service
	case obs.KindEnqueue:
		r.lastEnq[enqKey{rep, c, int32(ev.Page)}] = len(r.sched)
		r.sched = append(r.sched, schedOp{t: ev.T, kind: schedEnqueue, replica: rep, client: c,
			page: int32(ev.Page), demand: ev.Demand, service: ev.Service})
		r.queuedSum += int64(ev.Queued)
		if ev.InFlight > r.inflightMax {
			r.inflightMax = ev.InFlight
		}
	case obs.KindDequeue:
		k := enqKey{rep, c, int32(ev.Page)}
		if i, ok := r.lastEnq[k]; ok && ev.Attempt == 1 {
			r.sched[i].service = ev.Service
			delete(r.lastEnq, k)
		}
	case obs.KindPromote:
		r.sched = append(r.sched, schedOp{t: ev.T, kind: schedPromote, replica: rep, client: c, page: int32(ev.Page)})
	case obs.KindQueueDepth:
		if r.snapshots {
			r.sched = append(r.sched, schedOp{t: ev.T, kind: schedSnapshot, replica: rep})
		}
	case obs.KindPreempt:
		r.preemptLost += ev.Service
	case obs.KindReplicaFail:
		r.sched = append(r.sched, schedOp{t: ev.T, kind: schedFail, replica: rep})
		r.failLost += int64(ev.Queued)
	case obs.KindReplicaRecover:
		r.sched = append(r.sched, schedOp{t: ev.T, kind: schedRecover, replica: rep})
	}
}

// encodeBatch streams the buffered events through the obs JSONL writer.
func (r *recorder) encodeBatch() {
	t0 := time.Now()
	for _, ev := range r.batch {
		r.w.Emit(ev)
	}
	r.encode += time.Since(t0)
	r.batch = r.batch[:0]
}

// finish encodes the last batch and flushes the writer.
func (r *recorder) finish() error {
	r.encodeBatch()
	t0 := time.Now()
	err := r.w.Flush()
	r.encode += time.Since(t0)
	return err
}

// events returns the total number of traced events.
func (r *recorder) events() int64 {
	var n int64
	for _, c := range r.counts {
		n += c
	}
	return n
}
