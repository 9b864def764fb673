package nmad

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/admit"
	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/trace"
)

// StrategyKind selects the sending strategy applied to small messages
// (paper Fig. 1: the optimization layer between application flows and
// NICs).
type StrategyKind int

const (
	// StrategyDefault sends each message as its own frame immediately.
	StrategyDefault StrategyKind = iota
	// StrategyAggreg packs pending small messages heading to the same
	// gate into one frame — fewer, larger packets on the wire.
	StrategyAggreg
)

// Config parameterizes an Engine.
type Config struct {
	// Tasks is the PIOMan task engine the engine submits its work to,
	// and whose clock (core.Engine.Now) its deadlines run on. When nil
	// the engine builds a private core.NewDefault, with a progression
	// context, and closes it last in Close.
	Tasks *core.Engine
	// EagerThreshold is the largest payload sent eagerly; larger
	// messages use the RTS/FIN rendezvous (default 8 KiB).
	EagerThreshold int
	// Strategy selects the small-message send strategy.
	Strategy StrategyKind
	// MaxAggr bounds the payload bytes packed into one aggregate frame
	// (default 16 KiB).
	MaxAggr int
	// Calibrate wraps every gate rail in a fabric.Calibrator: striping
	// and eager routing then consume *measured* per-rail latency and
	// bandwidth instead of the provider's assumed envelope, starting
	// from zero knowledge (equal-weight striping) and converging as
	// completions are observed — the paper's sampled rail selection,
	// done online. Endpoints already wrapped in a CalibratedEndpoint
	// are used as-is, so callers may pre-seed or share calibrators.
	// The package's own rails (MemPair, TCP) lose their codec-free
	// frame fast path when calibrated (frames pass through the generic
	// byte interface to be timed). Asynchronous providers must post
	// send completions to be measurable — for SimFabric, set
	// SimConfig.SendCompletions — or the calibrator runs disabled on
	// its Assume seed (see fabric.CalibratedEndpoint.Sampling).
	Calibrate bool
	// RdvTimeout is the rendezvous handshake deadline in nanoseconds of
	// the task engine's clock (default 500 ms): how long either half
	// waits on the peer's next protocol step before retransmitting. Each
	// retry doubles it. It also bounds how long Close lingers.
	RdvTimeout int64
	// RdvRetries is how many retransmissions a stalled rendezvous half
	// attempts before failing with ErrRdvTimeout (default 3).
	RdvRetries int
	// Trace attaches a flight recorder: rendezvous RTS/FIN arrivals,
	// retransmissions, permanent timeouts, and rail deaths are recorded
	// under the owning gate's ring, stamped on the recorder's clock.
	// Nil (the default) leaves each hook as one nil check.
	Trace *trace.Recorder
	// Admit enables engine-level admission control (admission.go):
	// every Isend/IrecvInto takes request and byte credits against
	// engine-wide and per-gate budgets before injection, and overload
	// surfaces to the submitter per AdmitPolicy instead of growing the
	// protocol maps without bound. Nil (the default) disables admission
	// entirely — the submission paths are untouched.
	Admit *admit.Config
	// AdmitPolicy selects the overload behaviour when Admit is set:
	// block with a wait budget (default), fail fast, or degrade.
	AdmitPolicy AdmitPolicy
	// AdmitWait is the blocking policy's wait budget in task-engine
	// clock nanoseconds: how long a parked submission may wait for credits
	// before failing with ErrDeadlineExpired (default RdvTimeout).
	AdmitWait int64
}

// Stats are engine-wide counters.
type Stats struct {
	MsgsSent        uint64 // application messages sent
	MsgsRecv        uint64 // application messages received
	FramesSent      uint64 // frames put on a wire
	FramesRecv      uint64 // frames taken off a wire
	EagerSent       uint64 // messages sent eagerly
	Aggregated      uint64 // messages that travelled inside an aggregate
	AggrFrames      uint64 // aggregate frames sent
	RdvStarted      uint64 // rendezvous handshakes initiated
	Restripes       uint64 // frames re-routed onto a surviving rail
	RdvPulls        uint64 // RMA reads posted by rendezvous receives
	RdvPullBytes    uint64 // payload bytes landed by RMA reads
	RdvFins         uint64 // rendezvous receives completed (FIN sent)
	RecvCopiedBytes uint64 // payload bytes memcpy'd on the receive path
	RdvRetries      uint64 // rendezvous steps retransmitted after a timeout
	RdvTimeouts     uint64 // rendezvous halves failed with ErrRdvTimeout
	EagerRetries    uint64 // eager messages retransmitted after a timeout
	EagerTimeouts   uint64 // eager messages failed with ErrEagerTimeout
	EagerAcks       uint64 // eager messages acknowledged by the peer

	AdmitAdmitted   uint64 // submissions granted admission credits
	AdmitRejected   uint64 // submissions failed with ErrAdmissionReject (all causes)
	AdmitShed       uint64 // rendezvous submissions shed by degraded mode (subset of rejected)
	AdmitBlocked    uint64 // submissions parked by the blocking policy
	AdmitExpired    uint64 // parked submissions that waited past their budget
	DeadlineExpired uint64 // requests failed with ErrDeadlineExpired (all causes)
}

// Engine is one communication endpoint multiplexing any number of gates
// (peer connections) over the PIOMan task engine.
type Engine struct {
	cfg   Config
	tasks *core.Engine
	// ownTasks: tasks is the private engine NewEngine built, closed last
	// in Close.
	ownTasks bool
	// sweep is the deadline sweep's one-shot timer (timeout.go).
	sweep core.Task
	// owed counts control frames (FIN, eager ack, NACK) submitted by
	// sendControl and not yet handed to a rail: what Close lingers for.
	owed atomic.Int64

	// mu guards the gate list and nothing else: every gate owns its
	// protocol state behind its own mutex (Gate.mu).
	mu    sync.Mutex
	gates []*Gate

	reqPool     sync.Pool // *Request
	sendRdvPool sync.Pool // *sendRdvState
	recvRdvPool sync.Pool // *recvRdvState
	eagerPool   sync.Pool // *eagerState
	reqFIFOPool sync.Pool // *fifo[*Request]
	inbFIFOPool sync.Pool // *fifo[inbound]

	stopped atomic.Bool

	// rec is the optional flight recorder (Config.Trace); nil means
	// every hook is a single nil check.
	rec *trace.Recorder
	// lastProgress is the clock stamp of the most recent deadline
	// sweep — the engine-liveness signal /healthz probes.
	lastProgress atomic.Int64

	msgsSent, msgsRecv, framesSent, framesRecv atomic.Uint64
	eagerSent, aggregated, aggrFrames          atomic.Uint64
	rdvStarted, restripes                      atomic.Uint64
	rdvPulls, rdvPullBytes                     atomic.Uint64
	rdvFins, recvCopied                        atomic.Uint64
	rdvRetries, rdvTimeouts                    atomic.Uint64
	eagerRetries, eagerTimeouts, eagerAcks     atomic.Uint64

	// admit is the admission plane (Config.Admit); nil means admission
	// is off and every submission path skips it with one nil check.
	admit                                   *admitPlane
	admitAdmitted, admitRejected, admitShed atomic.Uint64
	admitBlocked, admitExpired              atomic.Uint64
	deadlineExpired                         atomic.Uint64
}

// fifo is one (gate, tag) queue of posted receives or unexpected
// arrivals. The backing slice is reused across drain cycles, so
// steady-state post/match traffic allocates nothing.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.items) {
		// Compact once the dead prefix dominates: a queue that never
		// fully drains (receives always re-posted before the current
		// one matches) must not grow its backing slice without bound.
		// Amortized O(1) per pop; the vacated tail is zeroed so moved
		// entries are not pinned twice.
		n := copy(q.items, q.items[q.head:])
		tail := q.items[n:]
		for i := range tail {
			tail[i] = zero
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}

func (q *fifo[T]) empty() bool { return q.head == len(q.items) }

// FIFO pooling: a (gate, tag) queue lives in the matching map only
// while it holds entries; a drained queue goes back to the pool and
// its map slot is deleted, so engines seeing ever-fresh tags do not
// grow their maps without bound — and steady-state matching allocates
// nothing either way. Callers hold the gate's mu.

func getFIFO[T any](pool *sync.Pool) *fifo[T] {
	q, _ := pool.Get().(*fifo[T])
	if q == nil {
		q = &fifo[T]{}
	}
	return q
}

// dropFIFOIfEmpty retires a drained queue from its matching map.
func dropFIFOIfEmpty[T any](m map[uint64]*fifo[T], pool *sync.Pool, tag uint64, q *fifo[T]) {
	if q.empty() {
		delete(m, tag)
		pool.Put(q)
	}
}

type inbound struct {
	hdr     Header
	payload []byte
	ext     []byte // RTS pull offer (copied when stashed)
}

type sendRdvState struct {
	req *Request
	// retryTimer drives the handshake-timeout sweep; guarded by Gate.mu
	// like the sendRdv map that holds the state.
	retryTimer

	// The interned registrations backing the RTS offer, and the offer
	// bytes themselves (rides the RTS imm extension; storage reused
	// across rendezvous).
	regs  []*fabric.CachedRegion
	offer []byte

	// What a retransmitted RTS must carry.
	tag   uint64
	total uint32
}

// releaseRegs returns the state's interned registrations to their
// caches. Idempotent: every removal path calls it.
func (st *sendRdvState) releaseRegs() {
	for i, r := range st.regs {
		if r != nil {
			r.Release()
			st.regs[i] = nil
		}
	}
	st.regs = st.regs[:0]
}

// getSendRdv takes a send-rendezvous state from the pool.
func (e *Engine) getSendRdv() *sendRdvState {
	st, _ := e.sendRdvPool.Get().(*sendRdvState)
	if st == nil {
		st = &sendRdvState{}
	}
	return st
}

// putSendRdv recycles a send-rendezvous state. Only clean completion
// paths recycle; failure sweeps leave the state to the garbage
// collector, because in-flight packets may still reference its offer.
func (e *Engine) putSendRdv(st *sendRdvState) {
	st.releaseRegs()
	*st = sendRdvState{regs: st.regs, offer: st.offer[:0]}
	e.sendRdvPool.Put(st)
}

// NewEngine builds an engine and arms its deadline sweep.
func NewEngine(cfg Config) *Engine {
	own := cfg.Tasks == nil
	if own {
		cfg.Tasks = core.NewDefault()
	}
	if cfg.EagerThreshold <= 0 {
		cfg.EagerThreshold = 8 << 10
	}
	if cfg.MaxAggr <= 0 {
		cfg.MaxAggr = 16 << 10
	}
	if cfg.RdvTimeout <= 0 {
		cfg.RdvTimeout = int64(500 * time.Millisecond)
	}
	if cfg.RdvRetries <= 0 {
		cfg.RdvRetries = 3
	}
	e := &Engine{
		cfg:      cfg,
		tasks:    cfg.Tasks,
		ownTasks: own,
		rec:      cfg.Trace,
	}
	if cfg.Admit != nil {
		e.admit = newAdmitPlane(cfg)
	}
	e.sweep = core.Task{Fn: sweepTask, Arg: e, OnDone: rearmSweep}
	e.armSweep(e.tasks.Now())
	return e
}

// Tasks exposes the underlying task engine, for callers that drive
// progression themselves (explicit Schedule loops on a core without a
// progression context, WaitActive-style helpers) or share it with
// another engine.
func (e *Engine) Tasks() *core.Engine { return e.tasks }

// Gates returns a snapshot of the engine's open gates, for observers
// walking per-rail stats. The slice is a copy; the gates are live.
func (e *Engine) Gates() []*Gate {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Gate(nil), e.gates...)
}

// FailedGates counts gates with no alive rail left — connections the
// engine has declared dead. /healthz treats any non-zero value as
// unhealthy.
func (e *Engine) FailedGates() int {
	n := 0
	for _, g := range e.Gates() {
		if g.alive.Load() <= 0 {
			n++
		}
	}
	return n
}

// LastProgress returns the clock stamp of the most recent deadline
// sweep, 0 before the first one — the engine-liveness signal health
// probes compare against the current clock. The sweep runs every
// RdvTimeout/8 while anything schedules the task engine.
func (e *Engine) LastProgress() int64 { return e.lastProgress.Load() }

// SettledOccupancy reports how many entries the gates' dedup logs
// currently pin, summed over gates (sender-settled rendezvous,
// receiver-settled rendezvous, seen eager sequences). Each gate's log
// is bounded by its ring capacity; a log stuck at its cap under load is
// retransmission pressure made visible.
func (e *Engine) SettledOccupancy() (send, recv, eager int) {
	for _, g := range e.Gates() {
		g.mu.Lock()
		send += len(g.settledSend.set)
		recv += len(g.settledRecv.set)
		eager += len(g.seenEager.set)
		g.mu.Unlock()
	}
	return send, recv, eager
}

// Close shuts the engine down in three steps. It stops admission: new
// sends and receives fail with ErrClosed. It lingers until every control
// frame it owes a peer (FIN, eager ack, NACK) has been handed to a
// rail, or one RdvTimeout passes, so a peer waiting on one is not failed
// by the rails closing under it (SO_LINGER's contract). Only then does
// it complete outstanding requests (posted receives, in-flight
// rendezvous on both sides) with an error, release the gates'
// registration caches, close every rail of every gate and, last, close
// a private task engine.
func (e *Engine) Close() error {
	if !e.stopped.CompareAndSwap(false, true) {
		return nil
	}
	for end := e.tasks.Now() + e.cfg.RdvTimeout; e.owed.Load() > 0 && e.tasks.Now() < end; {
		// With a progression context the owed frames' tasks run there
		// (one may be blocked in a send this wait must not join);
		// without one, this call is the only progress there is.
		if e.tasks.Progressing() || e.tasks.Schedule(0) == 0 {
			runtime.Gosched()
		}
	}
	gates := e.Gates()
	var pending []*Request
	for _, g := range gates {
		pending = g.takeInflight(pending)
	}
	sortVictims(pending)
	for _, r := range pending {
		r.complete(ErrClosed)
	}
	// Admission-parked submissions hold no credits and no trace span
	// yet; fail them after the injected victims, in FIFO order.
	for _, w := range e.admitTakeWaiters(nil) {
		w.req.complete(ErrClosed)
	}
	var firstErr error
	for _, g := range gates {
		for _, c := range g.regCaches {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, r := range g.rails {
			if err := r.ep.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if e.ownTasks {
		e.tasks.Close()
	}
	return firstErr
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		MsgsSent:   e.msgsSent.Load(),
		MsgsRecv:   e.msgsRecv.Load(),
		FramesSent: e.framesSent.Load(),
		FramesRecv: e.framesRecv.Load(),
		EagerSent:  e.eagerSent.Load(),
		Aggregated: e.aggregated.Load(),
		AggrFrames: e.aggrFrames.Load(),
		RdvStarted: e.rdvStarted.Load(),
		Restripes:  e.restripes.Load(),

		RdvPulls:        e.rdvPulls.Load(),
		RdvPullBytes:    e.rdvPullBytes.Load(),
		RdvFins:         e.rdvFins.Load(),
		RecvCopiedBytes: e.recvCopied.Load(),
		RdvRetries:      e.rdvRetries.Load(),
		RdvTimeouts:     e.rdvTimeouts.Load(),
		EagerRetries:    e.eagerRetries.Load(),
		EagerTimeouts:   e.eagerTimeouts.Load(),
		EagerAcks:       e.eagerAcks.Load(),

		AdmitAdmitted:   e.admitAdmitted.Load(),
		AdmitRejected:   e.admitRejected.Load(),
		AdmitShed:       e.admitShed.Load(),
		AdmitBlocked:    e.admitBlocked.Load(),
		AdmitExpired:    e.admitExpired.Load(),
		DeadlineExpired: e.deadlineExpired.Load(),
	}
}

// rail is one fabric endpoint of a gate plus its liveness flag and
// transfer accounting. The mutex serializes Sends on the endpoint;
// the counters feed RailStats and the Σ per-rail bytes invariant.
type rail struct {
	ep fabric.Endpoint
	// rma is the endpoint's RMA face when the rail can serve rendezvous
	// reads; nil otherwise.
	rma fabric.RMAEndpoint
	// cache interns sender-side registrations on the rail's domain
	// (shared between rails of one gate that share a domain); nil when
	// the rail cannot register memory.
	cache *fabric.RegCache
	// tcp is a TCP rail's own endpoint, under any calibration wrapper:
	// it cannot lose a read while it lives (timeout.go). Nil otherwise.
	tcp       *tcpEndpoint
	mu        sync.Mutex
	dead      atomic.Bool
	frames    atomic.Uint64
	bytes     atomic.Uint64
	pullBytes atomic.Uint64
}

// bpLimit returns the rail's backpressure threshold: the number of
// in-flight frames that fill the measured bandwidth-delay product
// (BDP / average frame size, clamped to [8, 512]). Rails with an
// unknown bandwidth or latency fall back to the fixed default — there
// is no product to compute. The average frame size comes from the
// rail's own accounting, seeded with a nominal 4 KiB before traffic.
// The envelope is passed in rather than re-fetched: Capabilities may
// take a provider lock (SimFabric) or fold estimator state
// (CalibratedEndpoint), and every caller has already fetched it.
func (r *rail) bpLimit(caps fabric.Capabilities) int {
	if caps.Bandwidth <= 0 || caps.Latency <= 0 {
		return defaultBackpressureLimit
	}
	avg := uint64(4 << 10)
	if frames := r.frames.Load(); frames > 0 {
		if a := r.bytes.Load() / frames; a > 0 {
			avg = a
		}
	}
	bdp := caps.Bandwidth * float64(caps.Latency) / 1e9
	lim := int(bdp / float64(avg))
	if lim < minBackpressureLimit {
		return minBackpressureLimit
	}
	if lim > maxBackpressureLimit {
		return maxBackpressureLimit
	}
	return lim
}

// backpressured reports whether the rail's completion queue exceeds
// its threshold.
func (r *rail) backpressured(caps fabric.Capabilities) bool {
	return r.ep.Backlog() > r.bpLimit(caps)
}

// RailStat is one rail's liveness, accounting and capability envelope,
// as returned by Gate.RailStats.
type RailStat struct {
	// Provider names the rail's backend ("mem", "tcp", "simrdma").
	Provider string
	// Caps is the rail's capability envelope.
	Caps fabric.Capabilities
	// Frames counts frames sent on the rail.
	Frames uint64
	// Bytes counts payload bytes sent on the rail.
	Bytes uint64
	// PullBytes counts payload bytes this side RMA-read in over the
	// rail (receiver-driven rendezvous).
	PullBytes uint64
	// Backlog is the rail's current completion-queue depth.
	Backlog int
	// BackpressureLimit is the rail's current backpressure threshold
	// (bandwidth-delay product over average frame size, or the default
	// for unknown rails).
	BackpressureLimit int
	// Dead reports whether the rail has failed.
	Dead bool
}

// Gate is a connection to one peer over one or more rails (fabric
// endpoints). Small messages are routed to the lowest-latency alive
// rail; large rendezvous payloads are read striped across alive rails
// in proportion to their bandwidth (multirail), with backpressured
// rails deprioritized, frames re-routed when a rail dies under a send
// and reads re-issued when one dies under a read.
type Gate struct {
	eng       *Engine
	id        int
	rails     []*rail
	alive     atomic.Int32
	nextMsgID atomic.Uint64

	// traceNode/tracePeer are the identities stamped into span ids
	// (trace.PackSpanID): this side's node and the peer's node in
	// whatever namespace the harness assigns (cluster node index).
	// Defaults to the gate id on both, which keeps standalone
	// engine-pair tests self-consistent; SetTraceInfo rewires them at
	// link time so the two directions of one connection correlate.
	traceNode, tracePeer int

	// regCaches interns sender-side registrations per rail domain, so
	// rails sharing a domain share one cache (and repeated sends of
	// one buffer share one registration).
	regCaches map[fabric.Domain]*fabric.RegCache

	// mu guards the gate's protocol state: posted receives and
	// unexpected arrivals by tag (O(1) matching, FIFO per tag), both
	// rendezvous halves and the eager ack window by msgID (including
	// their retryTimers) and the three dedup logs.
	// Lock order: Engine.mu → Gate.mu → recvRdvState.mu; admitPlane.mu
	// is taken under none of them and takes none of them. mu is never
	// held across Request.complete, sendControl/sendPacket, issueChunk or
	// an endpoint call — each of them can re-enter the gate.
	mu          sync.Mutex
	recvQ       map[uint64]*fifo[*Request]
	unexpected  map[uint64]*fifo[inbound]
	rdvRecv     map[uint64]*recvRdvState
	sendRdv     map[uint64]*sendRdvState
	eagerPend   map[uint64]*eagerState
	settledSend settledLog
	settledRecv settledLog
	seenEager   settledLog

	aggMu       sync.Mutex
	aggPending  []pendingSend
	aggFlushing bool
	aggBufs     [][]byte // pooled aggregate payload buffers

	pktPool sync.Pool

	// admitL is the gate's admission ledger when the engine runs
	// admission control (nil otherwise); its budgets track the rails'
	// live BDP estimate unless the config pins them.
	admitL *admit.Ledger
}

type pendingSend struct {
	hdr     Header
	payload []byte
}

// NewGate attaches a connection made of the package's own driver
// rails (MemPair, NewTCP): each brings its own endpoint, frames plus an
// RMA face, with its assumed capability envelope. Any other Driver is
// rejected; foreign providers attach through NewGateEndpoints.
func (e *Engine) NewGate(drivers ...Driver) (*Gate, error) {
	eps := make([]fabric.Endpoint, len(drivers))
	for i, d := range drivers {
		ep := endpointOf(d)
		if ep == nil {
			return nil, fmt.Errorf("nmad: NewGate: %T is not one of the package's drivers", d)
		}
		eps[i] = ep
	}
	return e.NewGateEndpoints(eps...)
}

// endpointOf returns the own endpoint of one of the package's drivers,
// nil for any other Driver.
func endpointOf(d Driver) fabric.Endpoint {
	switch d := d.(type) {
	case *memDriver:
		return (*memEndpoint)(d)
	case *tcpDriver:
		return (*tcpEndpoint)(d)
	}
	return nil
}

// NewGateEndpoints attaches a connection made of the given fabric
// endpoints and arms one poll task per rail (see poller). Poll tasks
// serve their rail until the engine closes or the rail dies; they are
// unconstrained, so they live on the root queue every CPU's scan ends
// at and whichever core has a scheduling hole runs them. At least one
// rail must be able to read (Capabilities.RMA on an RMAEndpoint): the
// rendezvous moves its payload by RMA reads only.
func (e *Engine) NewGateEndpoints(eps ...fabric.Endpoint) (*Gate, error) {
	if len(eps) == 0 {
		return nil, errors.New("nmad: gate needs at least one rail")
	}
	if !slices.ContainsFunc(eps, canRead) {
		return nil, errors.New("nmad: gate needs a rail that can serve RMA reads")
	}
	own := eps
	if e.cfg.Calibrate {
		// Wrap into a fresh slice: the variadic parameter may alias the
		// caller's backing array, which must not see its endpoints
		// silently replaced.
		wrapped := make([]fabric.Endpoint, len(eps))
		for i, ep := range eps {
			if _, ok := ep.(*fabric.CalibratedEndpoint); ok {
				wrapped[i] = ep
			} else {
				wrapped[i] = fabric.Calibrate(ep, fabric.CalibratorConfig{})
			}
		}
		eps = wrapped
	}
	g := &Gate{
		eng:        e,
		recvQ:      make(map[uint64]*fifo[*Request]),
		unexpected: make(map[uint64]*fifo[inbound]),
		rdvRecv:    make(map[uint64]*recvRdvState),
		sendRdv:    make(map[uint64]*sendRdvState),
		eagerPend:  make(map[uint64]*eagerState),
	}
	if e.admit != nil {
		ac := e.admit.cfg
		g.admitL = admit.NewLedger(ac.GateRequests, ac.GateBytes, ac.HighWater, ac.LowWater)
	}
	for i, ep := range eps {
		r := &rail{ep: ep}
		r.tcp, _ = own[i].(*tcpEndpoint)
		if canRead(ep) {
			r.rma = ep.(fabric.RMAEndpoint)
			if dd, ok := ep.(fabric.Domained); ok {
				if dom := dd.Domain(); dom != nil {
					if g.regCaches == nil {
						g.regCaches = make(map[fabric.Domain]*fabric.RegCache)
					}
					cache := g.regCaches[dom]
					if cache == nil {
						cache = fabric.NewRegCache(dom, 0)
						g.regCaches[dom] = cache
					}
					r.cache = cache
				}
			}
		}
		g.rails = append(g.rails, r)
	}
	g.alive.Store(int32(len(eps)))
	g.pktPool.New = func() any { return new(Packet) }
	e.mu.Lock()
	g.id = len(e.gates)
	g.traceNode, g.tracePeer = g.id, g.id
	e.gates = append(e.gates, g)
	e.mu.Unlock()

	for i, r := range g.rails {
		p := &poller{g: g, idx: i}
		p.task = core.Task{Fn: pollRail, Arg: p, Options: core.Repeat, OnDone: rearmPoll}
		// The package's own rails move decoded Headers through the
		// internal fast path, preserving their codec-free,
		// allocation-free frame handling, and signal their events.
		p.fe, _ = r.ep.(frameEndpoint)
		if slot := pollSlot(own[i]); slot != nil {
			p.signals = true
			slot.Store(p)
		}
		p.arm()
	}
	return g, nil
}

// poller is a rail's poll task. The package's own rails signal each
// event they make visible to Poll (a frame, a landed read, an error):
// signal raises the ready flag and arms the task once per readiness
// edge. The task lowers the flag, drains the rail and ends; its OnDone
// disarms it and re-reads the flag, so an event that lands between the
// last empty poll and the disarm re-arms it instead of being lost. A
// provider that cannot signal (SimFabric, fabric.Loopback) counts as
// always ready: its task polls once per pass and re-queues.
//
// A rail marked dead by the send path keeps being polled: send and
// receive capability fail independently, and frames already in flight
// toward us (a FIN, a NACK) must still land. Polling stops (the poller
// retires, armed for good) only on a receive-side error or engine close.
type poller struct {
	task         core.Task
	g            *Gate
	idx          int
	fe           frameEndpoint
	signals      bool
	ready, armed atomic.Bool
	retired      bool // written by the task body, read by its OnDone
}

// pollBurst bounds how many events one run of a signalling rail's poll
// task handles before it re-queues, so a flooding peer cannot hold a
// core against the engine's other tasks.
const pollBurst = 32

// signal raises the ready flag and arms the task. A flag already raised
// needs nothing more: whoever raised it arms the task, or the task's
// re-check after it disarms sees the flag.
func (p *poller) signal() {
	if !p.ready.Swap(true) {
		p.arm()
	}
}

// arm submits the poll task unless it is already queued or running.
func (p *poller) arm() {
	if p.armed.CompareAndSwap(false, true) {
		p.task.Reset()
		p.g.eng.tasks.MustSubmit(&p.task)
	}
}

// pollRail is the poll task body: handle the rail's events, one per
// pass on a provider that cannot signal, up to pollBurst otherwise.
func pollRail(arg any) bool {
	p := arg.(*poller)
	e := p.g.eng
	p.ready.Store(false)
	for n := 1; ; n++ {
		got, err := p.pollOnce()
		if err != nil {
			e.railFailed(p.g, p.idx, err)
		}
		if p.retired = err != nil || e.stopped.Load(); p.retired {
			return true
		}
		if !got || !p.signals || n == pollBurst {
			return !got && p.signals // idle: end, or re-queue if always ready
		}
	}
}

// rearmPoll is the poll task's OnDone: disarm, then re-arm at once if
// the rail signalled since the task cleared its ready flag.
func rearmPoll(t *core.Task) {
	p := t.Arg.(*poller)
	if p.retired {
		return
	}
	p.armed.Store(false)
	if p.ready.Load() {
		p.arm()
	}
}

// pollOnce handles the rail's next event, if any: a landed read
// completes its rendezvous chunk, a frame goes to handleFrame.
func (p *poller) pollOnce() (bool, error) {
	e, g, r := p.g.eng, p.g, p.g.rails[p.idx]
	var f Frame
	if p.fe != nil {
		ev, got, err := p.fe.PollRead()
		if got {
			// A pull-mode rendezvous chunk landed.
			e.pullDone(g, p.idx, ev)
			return true, nil
		}
		if err != nil {
			return false, err
		}
		if f, got, err = p.fe.PollFrame(); !got || err != nil {
			return false, err
		}
	} else {
		ev, got, err := r.ep.Poll()
		if !got || err != nil {
			return false, err
		}
		switch ev.Kind {
		case fabric.EventRMADone:
			// A pull-mode rendezvous chunk landed.
			e.pullDone(g, p.idx, ev)
			return true, nil
		case fabric.EventRecv:
			// A frame we cannot parse means the rail is delivering
			// garbage: treat it like a poll error rather than dropping
			// frames silently.
			if f.Hdr, err = decodeHeader(ev.Imm); err != nil {
				return false, err
			}
			f.Payload = ev.Payload
			if len(ev.Imm) > headerBytes {
				f.Ext = ev.Imm[headerBytes:]
			}
		default:
			return true, nil
		}
	}
	e.framesRecv.Add(1)
	e.handleFrame(g, f)
	return true, nil
}

// canRead reports whether ep can serve rendezvous reads.
func canRead(ep fabric.Endpoint) bool {
	_, ok := ep.(fabric.RMAEndpoint)
	return ok && ep.Capabilities().RMA
}

// railDown marks a rail dead and returns how many rails remain alive.
// The first caller to kill a given rail decrements the alive count.
func (g *Gate) railDown(i int) int {
	if g.rails[i].dead.CompareAndSwap(false, true) {
		n := int(g.alive.Add(-1))
		if r := g.eng.rec; r != nil {
			r.Record(g.id, trace.EvRailDeath, uint64(i), uint64(n))
		}
		return n
	}
	return int(g.alive.Load())
}

// railFailed handles a receiver-observed rail death. The rail stops
// being polled; when no rail survives the whole gate fails. When some
// do, the gate's in-flight rendezvous state is judged by what this
// side can see:
//
//   - A receive knows exactly which of its reads ride which rails
//     (this side posted them), so chunks outstanding on the dead rail
//     are re-issued on the survivors — read again over another
//     offered key, or failed visibly when none is left — and the
//     transfer survives.
//   - Every send waiting on its FIN is failed conservatively: a FIN
//     already in flight on the dead rail is lost, so waiting would at
//     best ride out a handshake timeout. A prompt, retriable error
//     beats that wait — at the cost of spuriously failing a transfer
//     whose FIN never touched the dead rail.
//
// The dead endpoint is also closed, which is how the peer finds out:
// its next send into the closed transport fails, its own rail-death
// path marks the rail dead for sending, and its frames re-route onto
// the survivors instead of feeding a ring nobody polls.
func (e *Engine) railFailed(g *Gate, idx int, err error) {
	if g.railDown(idx) == 0 {
		e.failGate(g, err)
		return
	}
	_ = g.rails[idx].ep.Close()
	g.mu.Lock()
	var victims []*Request
	var repull []*recvRdvState
	for id, st := range g.rdvRecv {
		if st.beginSweep() {
			repull = append(repull, st)
			continue
		}
		st.markFailed()
		victims = append(victims, st.req)
		delete(g.rdvRecv, id)
		g.settledRecv.add(id)
	}
	victims = g.takeSendsLocked(victims)
	g.mu.Unlock()
	sortVictims(victims)
	for _, r := range victims {
		r.complete(err)
	}
	// Re-issue in msgID order: map iteration order is randomized, and
	// the re-posted reads must hit a simulated fabric in a reproducible
	// order for seeded chaos runs to replay exactly.
	sort.Slice(repull, func(i, j int) bool { return repull[i].msgID < repull[j].msgID })
	for _, st := range repull {
		// Those reads will never complete — the endpoint is closed, its
		// completion queue gone — so their slots are free to re-issue.
		e.reissue(g, st, func(c *rdvChunk) bool { return c.state == chunkReading && c.rail == idx })
	}
}

// failGate completes every outstanding request bound to the gate with
// the given error: posted receives, in-flight rendezvous receives, and
// sends waiting for a FIN.
func (e *Engine) failGate(g *Gate, err error) {
	victims := g.takeInflight(nil)
	sortVictims(victims)
	for _, r := range victims {
		r.complete(err)
	}
	// Submissions still parked at admission for this gate can never be
	// injected now; fail them too (they hold no credits).
	for _, w := range e.admitTakeWaiters(g) {
		w.req.complete(err)
	}
}

// takeInflight empties the gate of everything a request is waiting on —
// posted receives, both rendezvous halves, the eager ack window — and
// appends the orphaned requests to victims for the caller to complete
// once the lock is dropped. Removed rendezvous halves are settled, so
// the peer's late control frames are recognized rather than NACKed.
// Unexpected arrivals stay: no request owns them. Close sets stopped
// before it takes, and every path that enters a request into these maps
// checks stopped under the same lock, so nothing enters after the take
// to wait on an engine nobody progresses any more.
func (g *Gate) takeInflight(victims []*Request) []*Request {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, q := range g.recvQ {
		for r, ok := q.pop(); ok; r, ok = q.pop() {
			victims = append(victims, r)
		}
	}
	clear(g.recvQ)
	for id, st := range g.rdvRecv {
		st.markFailed()
		victims = append(victims, st.req)
		g.settledRecv.add(id)
	}
	clear(g.rdvRecv)
	victims = g.takeSendsLocked(victims)
	for _, st := range g.eagerPend {
		victims = append(victims, st.req)
	}
	clear(g.eagerPend)
	return victims
}

// takeSendsLocked removes and settles every send-side rendezvous half,
// releasing its registrations. Caller holds g.mu.
func (g *Gate) takeSendsLocked(victims []*Request) []*Request {
	for id, st := range g.sendRdv {
		st.releaseRegs()
		victims = append(victims, st.req)
		g.settledSend.add(id)
	}
	clear(g.sendRdv)
	return victims
}

// sortVictims orders a batch of to-be-failed requests by span id:
// completion now records trace events, and map iteration produced the
// batch in randomized order, which a byte-identical seeded trace
// cannot tolerate. Untraced requests (span id 0) record nothing, so
// their relative order is irrelevant.
func sortVictims(v []*Request) {
	sort.Slice(v, func(i, j int) bool { return v[i].traceID < v[j].traceID })
}

// SetTraceInfo assigns the gate's span-id identities: node is this
// side's id and peer the remote side's, in a namespace the caller
// owns (the cluster harness uses node indices). Both directions of a
// connection must agree — link A→B as (a, b) and B→A as (b, a) — for
// their span trees to merge on one message key. Call before traffic
// flows; the fields are read without synchronization on the record
// path.
func (g *Gate) SetTraceInfo(node, peer int) {
	g.traceNode, g.tracePeer = node, peer
}

// spanID packs a whole-message or chunk span id for this gate.
func (g *Gate) spanID(dir uint64, aux uint8, msgID uint64) uint64 {
	return trace.PackSpanID(g.traceNode, g.tracePeer, dir, aux, msgID)
}

// ID returns the gate's engine-local identifier — the ring its flight-
// recorder events land under and the label its metrics export carries.
func (g *Gate) ID() int { return g.id }

// RailStats returns a per-rail snapshot: provider, capability
// envelope, frames and payload bytes sent, backlog, liveness. Bytes
// counts what the rail actually carried, so across rails it sums to
// the payload bytes the gate put on the wire — equal to the
// application payload bytes under StrategyDefault (the multirail
// tie-out invariant the tests check); aggregate frames count their
// packed size, which exceeds the raw application payloads by one
// 20-byte sub-header per packed message.
func (g *Gate) RailStats() []RailStat {
	out := make([]RailStat, len(g.rails))
	for i, r := range g.rails {
		caps := r.ep.Capabilities()
		out[i] = RailStat{
			Provider:          r.ep.Provider(),
			Caps:              caps,
			Frames:            r.frames.Load(),
			Bytes:             r.bytes.Load(),
			PullBytes:         r.pullBytes.Load(),
			Backlog:           r.ep.Backlog(),
			BackpressureLimit: r.bpLimit(caps),
			Dead:              r.dead.Load(),
		}
	}
	return out
}

// Backpressure thresholds: a rail whose completion-queue depth exceeds
// its bandwidth-delay product (in frames) is deprioritized by eager
// routing and rendezvous striping as long as a less congested rail
// exists. Rails with unknown envelopes use the fixed default; measured
// rails derive their own limit, clamped to [min, max] (see
// rail.bpLimit).
const (
	defaultBackpressureLimit = 64
	minBackpressureLimit     = 8
	maxBackpressureLimit     = 512
)

// pickEager returns the alive rail with the lowest latency, preferring
// rails whose completion queue is under their backpressure limit; -1
// when every rail is dead. Small messages and control frames ride this
// rail, so they never queue behind a bulk transfer on a congested or
// slow rail.
func (g *Gate) pickEager() int {
	best, bestCongested := -1, -1
	var bestLat, bestCLat int64
	for i, r := range g.rails {
		if r.dead.Load() {
			continue
		}
		caps := r.ep.Capabilities()
		lat := int64(caps.Latency)
		if r.backpressured(caps) {
			if bestCongested < 0 || lat < bestCLat {
				bestCongested, bestCLat = i, lat
			}
			continue
		}
		if best < 0 || lat < bestLat {
			best, bestLat = i, lat
		}
	}
	if best < 0 {
		return bestCongested
	}
	return best
}

// packet takes a wrapper from the gate pool.
func (g *Gate) packet() *Packet {
	p := g.pktPool.Get().(*Packet)
	p.reset()
	p.gate = g
	return p
}

// preparePacket wires the packet's embedded task for submission. The
// task is marked Repeat so a transiently backpressured rendezvous
// frame can requeue itself for another attempt; ordinary sends report
// completion on the first run.
func (g *Gate) preparePacket(p *Packet) *core.Task {
	p.Task.Arg = p
	p.Task.Fn = sendPacketTask
	p.Task.OnDone = recyclePacket
	p.Task.Options = core.Repeat
	return &p.Task
}

// sendPacket submits the packet's embedded task: the actual endpoint
// Send runs on an idle core when one exists, otherwise wherever the
// next scheduling hole appears (paper §IV-B submission offload).
func (g *Gate) sendPacket(p *Packet) {
	g.eng.tasks.MustSubmit(g.preparePacket(p))
}

// errAllRailsDead reports a send that found no alive rail to run on.
var errAllRailsDead = errors.New("nmad: every rail of the gate has failed")

// maxSendRetries bounds how many times a backpressured rendezvous
// frame requeues itself before the failure surfaces; each retry rides
// a full scheduling pass, giving the peer's ring time to drain.
const maxSendRetries = 64

// sendPacketTask is the task body shared by every packet send. A send
// failure marks the rail dead and re-routes the frame onto the best
// surviving rail — re-striping in flight — so a multirail request
// survives the loss of any proper subset of its rails; only when no
// rail remains does the request fail.
func sendPacketTask(arg any) bool {
	p := arg.(*Packet)
	g := p.gate
	var err error
	for {
		r := g.rails[p.rail]
		if r.dead.Load() {
			err = errAllRailsDead
		} else if fe, ok := r.ep.(frameEndpoint); ok {
			// The package's rails: the decoded Header moves straight
			// through, no codec round-trip.
			r.mu.Lock()
			err = fe.SendFrame(p.Hdr, p.ext, p.Payload)
			r.mu.Unlock()
		} else {
			// Assemble header + extension in the packet's own buffer:
			// the send path allocates nothing.
			imm := p.immBuf[:headerBytes]
			p.Hdr.encode(imm)
			if len(p.ext) > 0 {
				imm = append(imm, p.ext...)
			}
			r.mu.Lock()
			err = r.ep.Send(imm, p.Payload)
			r.mu.Unlock()
		}
		if err == nil {
			r.frames.Add(1)
			r.bytes.Add(uint64(len(p.Payload)))
			g.eng.framesSent.Add(1)
			if p.Hdr.Kind == KindAggr {
				g.eng.aggrFrames.Add(1)
				g.eng.aggregated.Add(uint64(len(p.pend)))
			}
			p.completeAll(nil)
			return true
		}
		if errors.Is(err, ErrBackpressure) {
			// Transient rail-full condition; the rail stays alive
			// either way. A rendezvous frame has remote state waiting
			// on it (a receiver waiting on its RTS, a FIN-waiting
			// sender, a NACK's hanging target), so it requeues itself and
			// retries while the ring drains, up to a budget; past the
			// budget — or for an eager/aggregate frame, which its own
			// retransmission window re-drives — the outcome surfaces
			// locally.
			switch p.Hdr.Kind {
			case KindRTS, KindFin, KindRdvNack:
				if p.retries < maxSendRetries {
					p.retries++
					return false
				}
			}
			p.completeAll(err)
			return true
		}
		g.railDown(p.rail)
		next := g.pickEager()
		if next < 0 || next == p.rail {
			// The gate's last rail died through the send path: fail
			// the other outstanding requests too, exactly as a poll
			// error on the last rail would.
			if g.alive.Load() <= 0 {
				g.eng.failGate(g, err)
			}
			p.completeAll(err)
			return true
		}
		g.eng.restripes.Add(1)
		p.rail = next
	}
}

// completeAll routes the send outcome of the packet. An eager or
// aggregate frame carries the msgIDs of its ack-tracked messages, whose
// requests the pending window owns. A failed RTS carries none, but the
// send behind it is waiting on a reply that will now never come — fail
// it visibly instead of leaving both sides hanging.
func (p *Packet) completeAll(err error) {
	g := p.gate
	if err == nil {
		if rec := g.eng.rec; rec != nil {
			// Wire-out is a phase boundary: an eager frame leaving the
			// wire ends its injection phase and starts the ack wait.
			// Retransmitted frames re-record — the analyzer folds
			// duplicates as first-begin/last-end.
			for _, id := range p.pend {
				sid := g.spanID(trace.DirSend, 0, id)
				rec.Record(g.id, trace.EvInjectEnd, sid, 0)
				rec.Record(g.id, trace.EvAckWaitBegin, sid, 0)
			}
		}
		return
	}
	if len(p.pend) == 0 {
		// A failed FIN or NACK has no local state left to fail — the
		// peer's half is handled by its sweeps.
		if p.Hdr.Kind == KindRTS {
			g.failSendRdv(p.Hdr.MsgID, err)
		}
		return
	}
	if !errors.Is(err, ErrBackpressure) {
		// Eager messages whose frame could not be sent at all: fail them
		// now. A transiently backpressured frame is simply dropped
		// instead — the pending entries stay in the window and the
		// deadline sweep retransmits once the peer's ring drains.
		for _, id := range p.pend {
			g.eng.failEager(g, id, err)
		}
	}
}

// takeSendRdv removes and settles the send half of rendezvous id; nil
// when there is none, in which case settled reports whether it finished
// recently (its late control frames are then duplicates, not orphans).
func (g *Gate) takeSendRdv(id uint64) (st *sendRdvState, settled bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if st = g.sendRdv[id]; st == nil {
		return nil, g.settledSend.has(id)
	}
	delete(g.sendRdv, id)
	g.settledSend.add(id)
	return st, false
}

// takeRecvRdv removes and settles the receive half of rendezvous id,
// provided it is still only (nil: whatever is there). Remove-first is
// what makes racing finishers idempotent: exactly one caller gets the
// state back, the others see nil and stand down.
func (g *Gate) takeRecvRdv(id uint64, only *recvRdvState) *recvRdvState {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.rdvRecv[id]
	if st == nil || (only != nil && st != only) {
		return nil
	}
	delete(g.rdvRecv, id)
	g.settledRecv.add(id)
	return st
}

// failSendRdv fails the send waiting on rendezvous id, if any.
func (g *Gate) failSendRdv(id uint64, err error) {
	if st, _ := g.takeSendRdv(id); st != nil {
		st.releaseRegs()
		st.req.complete(err)
	}
}

// failRecvRdv fails the receive reading rendezvous id, if any.
func (g *Gate) failRecvRdv(id uint64, err error) {
	if st := g.takeRecvRdv(id, nil); st != nil {
		st.markFailed()
		st.req.complete(err)
	}
}

// recyclePacket returns the wrapper to its gate's pool, handing any
// pooled aggregate payload buffer back first. It runs as the task's
// OnDone hook — the final touch of the task lifecycle — so the reset
// cannot race with the engine's completion bookkeeping.
func recyclePacket(t *core.Task) {
	p := t.Arg.(*Packet)
	g := p.gate
	if p.Hdr.Kind >= KindFin { // FIN, eager ack, NACK: sendControl's kinds
		g.eng.owed.Add(-1)
	}
	if p.scratch != nil {
		g.putAggBuf(p.scratch)
	}
	p.reset()
	g.pktPool.Put(p)
}
