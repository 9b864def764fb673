package nmad

// Engine-level admission control.
//
// Nothing in the protocol stack bounds how much work submitters may
// push into an engine: without admission control an incast burst or a
// slow receiver turns into unbounded rendezvous/eager state growth,
// settled-log pressure and latency collapse — overload is invisible
// until it is fatal. This file puts a credit plane (internal/admit) in
// front of injection: every Isend / IrecvInto takes one request credit
// plus its payload bytes from both the engine-wide ledger and the
// gate's ledger before the protocol sees it, and the credits come back
// exactly once when the request reaches any terminal state — ack, FIN,
// timeout, NACK, cancel, gate failure, engine close — because the
// release rides Request.complete's exactly-once CAS.
//
// Per-gate budgets default to the rails' live bandwidth-delay product
// (the same estimate backpressure uses, so calibration refines both),
// clamped to a sane band; engine budgets default to fixed caps. When
// credits run out the submitter sees one of three policies:
//
//   - AdmitBlock parks the submission in a bounded FIFO queue; freed
//     credits drain it head-of-line (strict FIFO, no starvation), and
//     a queue entry that waits past Config.AdmitWait — or past its own
//     request deadline — fails visibly with ErrDeadlineExpired.
//   - AdmitReject fails the submission immediately with
//     ErrAdmissionReject: fail-fast for callers with their own retry
//     or load-balancing story.
//   - AdmitDegrade is reject plus a watermark: past the high-water
//     utilization mark the scope turns degraded and new *rendezvous*
//     offers are shed at submission while eager traffic and everything
//     already admitted keeps draining; below the low-water mark the
//     scope recovers. Graceful degradation — the engine under overload
//     stays live and visibly lossy instead of hanging.
//
// Requests may also carry an absolute deadline on the engine clock
// (IsendDeadline). It is checked at admission, re-checked by the
// deadline sweep for states still in flight (a doomed transfer is
// failed instead of retransmitted into the ground), and propagated to
// the receiver inside the RTS pull offer so an overloaded receiver
// stops posting RMA reads for work whose submitter has already given
// up. Shed and degrade transitions are visible: counters in Stats,
// gauges on /metrics, EvShed/EvDegrade instants in the flight
// recorder, and Gate.CheckIdle audits that a quiesced gate holds zero
// credits.
//
// Admission is off by default (Config.Admit == nil): the zero-value
// engine behaves exactly as before, which keeps every existing seeded
// trajectory byte-identical.

import (
	"errors"
	"sync"

	"pioman/internal/admit"
	"pioman/internal/trace"
)

// ErrAdmissionReject reports a submission refused by admission
// control: the inflight budget was exhausted (fail-fast policy), the
// block queue was full, or the scope was shedding in degraded mode.
// The request never entered the protocol; nothing was sent.
var ErrAdmissionReject = errors.New("nmad: admission rejected: inflight budget exhausted")

// ErrDeadlineExpired reports a request that ran out of time: its
// deadline (or its admission wait budget) passed before the transfer
// could start or finish. The request's resources are released.
var ErrDeadlineExpired = errors.New("nmad: request deadline expired")

// AdmitPolicy selects what a submitter sees when admission credits run
// out.
type AdmitPolicy int

const (
	// AdmitBlock parks the submission in a bounded FIFO queue until
	// credits free up, the wait budget (Config.AdmitWait) or request
	// deadline expires, or the gate/engine dies. The default.
	AdmitBlock AdmitPolicy = iota
	// AdmitReject fails the submission immediately with
	// ErrAdmissionReject.
	AdmitReject
	// AdmitDegrade rejects at the hard budget like AdmitReject, and
	// additionally sheds new rendezvous-sized sends whenever the scope
	// is past its high watermark — eager traffic and admitted work
	// keep draining, so the engine degrades instead of collapsing.
	AdmitDegrade
)

// EvShed reason codes (the B payload of a trace.EvShed instant).
const (
	shedBudget    uint64 = iota // hard budget refusal (reject policy)
	shedDegraded                // degraded-mode rendezvous shed
	shedQueueFull               // block policy, wait queue at capacity
	shedExpired                 // blocked submission waited past its budget
)

// Gate budget clamps for the live BDP derivation: one gate's byte
// budget is 4× the summed alive-rail bandwidth-delay product within
// [64 KiB, 8 MiB], and its request budget is the byte budget over a
// nominal 4 KiB message within [8, 1024].
const (
	minGateAdmitBytes    = 64 << 10
	maxGateAdmitBytes    = 8 << 20
	minGateAdmitRequests = 8
	maxGateAdmitRequests = 1024
	nominalAdmitMsgBytes = 4 << 10
)

// admitWaiter is one submission parked by the blocking policy: enough
// to inject it verbatim once credits free up, plus its wait deadline.
type admitWaiter struct {
	g      *Gate
	req    *Request
	tag    uint64
	data   []byte // send payload (nil for a receive)
	recv   bool   // receive: inject via injectRecv (buffer rides req.userBuf)
	n      int64  // byte credits the submission needs
	expire int64  // wait deadline on the engine clock
}

// admitPlane is the engine's admission state: the engine-wide ledger,
// the policy, and the blocked-submission queue. Gate ledgers live on
// their gates.
type admitPlane struct {
	cfg    admit.Config // normalized (WithDefaults applied)
	policy AdmitPolicy
	wait   int64 // block-policy wait budget in Clock ns
	eng    *admit.Ledger

	mu      sync.Mutex
	waiting []*admitWaiter
	// draining/more collapse recursive drains into an iterative loop:
	// injecting a drained waiter can synchronously complete a request,
	// whose credit release re-enters admitDrain.
	draining bool
	more     bool
}

// newAdmitPlane builds the engine's admission plane from its config.
func newAdmitPlane(cfg Config) *admitPlane {
	ac := cfg.Admit.WithDefaults()
	wait := cfg.AdmitWait
	if wait <= 0 {
		wait = cfg.RdvTimeout
	}
	return &admitPlane{
		cfg:    ac,
		policy: cfg.AdmitPolicy,
		wait:   wait,
		eng:    admit.NewLedger(ac.MaxRequests, ac.MaxBytes, ac.HighWater, ac.LowWater),
	}
}

// admitLimits returns the gate's current budgets: the configured
// values when both are set, otherwise derived from the live rail
// capability estimates (calibrated when Config.Calibrate is on) so the
// budget tracks what the wire can actually absorb.
func (g *Gate) admitLimits() (maxReqs int, maxBytes int64) {
	cfg := g.eng.admit.cfg
	maxReqs, maxBytes = cfg.GateRequests, cfg.GateBytes
	if maxReqs > 0 && maxBytes > 0 {
		return maxReqs, maxBytes
	}
	var bdp float64
	for _, r := range g.rails {
		if r.dead.Load() {
			continue
		}
		caps := r.ep.Capabilities()
		if caps.Bandwidth <= 0 || caps.Latency <= 0 {
			continue
		}
		bdp += caps.Bandwidth * float64(caps.Latency) / 1e9
	}
	if maxBytes <= 0 {
		maxBytes = min(max(int64(4*bdp), minGateAdmitBytes), maxGateAdmitBytes)
	}
	if maxReqs <= 0 {
		maxReqs = min(max(int(maxBytes/nominalAdmitMsgBytes), minGateAdmitRequests), maxGateAdmitRequests)
	}
	return maxReqs, maxBytes
}

// recordShed emits the EvShed instant for a refused submission.
func (e *Engine) recordShed(g *Gate, n int64, reason uint64) {
	if r := e.rec; r != nil {
		r.Record(g.id, trace.EvShed, uint64(n), reason)
	}
}

// recordDegrade emits the EvDegrade instant for a ledger that just
// crossed a watermark, under the triggering gate's ring.
func (e *Engine) recordDegrade(g *Gate, l *admit.Ledger) {
	if r := e.rec; r != nil {
		s := l.Snapshot()
		a := uint64(0)
		if s.Degraded {
			a = 1
		}
		r.Record(g.id, trace.EvDegrade, a, uint64(s.Bytes))
	}
}

// admitAcquire takes credits from the gate ledger then the engine
// ledger (released again on the second refusal), refreshing the gate's
// BDP-derived budgets first. Reports whether the submission is
// admitted.
func (g *Gate) admitAcquire(n int64) bool {
	e := g.eng
	p := e.admit
	if p.cfg.GateRequests <= 0 || p.cfg.GateBytes <= 0 {
		maxR, maxB := g.admitLimits()
		if g.admitL.SetLimits(maxR, maxB) {
			e.recordDegrade(g, g.admitL)
		}
	}
	ok, flipped := g.admitL.TryAcquire(n)
	if flipped {
		e.recordDegrade(g, g.admitL)
	}
	if !ok {
		return false
	}
	ok, flipped = p.eng.TryAcquire(n)
	if flipped {
		e.recordDegrade(g, p.eng)
	}
	if !ok {
		if g.admitL.Release(n) {
			e.recordDegrade(g, g.admitL)
		}
		return false
	}
	return true
}

// admitReject fails a refused submission with ErrAdmissionReject and
// counts it. Every path that produces the error funnels through here,
// so Stats.AdmitRejected always equals the requests that saw it — the
// "shed counts match reject errors" invariant the chaos harness
// checks.
func (e *Engine) admitReject(req *Request) {
	e.admitRejected.Add(1)
	req.complete(ErrAdmissionReject)
}

// admitSubmit runs the admission decision for one submission (send:
// data set; receive: recv true, buffer already on req.userBuf). True
// means admitted — credits are held on the request and the caller must
// inject. False means the submission was parked (blocking policy) or
// completed with an admission error; either way the caller just
// returns the request.
func (e *Engine) admitSubmit(g *Gate, req *Request, tag uint64, data []byte, recv bool) bool {
	p := e.admit
	// The clock is read only where it is used (deadline, block path).
	if d := req.deadline; d != 0 && e.tasks.Now() >= d {
		e.deadlineExpired.Add(1)
		req.complete(ErrDeadlineExpired)
		return false
	}
	n := int64(len(data))
	if recv {
		n = int64(len(req.userBuf))
	}
	if p.policy == AdmitDegrade && !recv && len(data) > e.cfg.EagerThreshold &&
		(p.eng.Degraded() || g.admitL.Degraded()) {
		// Degraded mode sheds new rendezvous offers while the admitted
		// inflight (and the eager fast path) drains the scope back
		// under its low watermark.
		e.admitShed.Add(1)
		e.recordShed(g, n, shedDegraded)
		e.admitReject(req)
		return false
	}
	if g.admitAcquire(n) {
		e.admitAdmitted.Add(1)
		req.admitGate, req.admitBytes = g, n
		return true
	}
	if p.policy != AdmitBlock {
		e.recordShed(g, n, shedBudget)
		e.admitReject(req)
		return false
	}
	exp := e.tasks.Now() + p.wait
	if d := req.deadline; d != 0 && d < exp {
		exp = d
	}
	w := &admitWaiter{g: g, req: req, tag: tag, data: data, recv: recv, n: n, expire: exp}
	p.mu.Lock()
	if e.stopped.Load() { // Close took the waiters: see admitTakeWaiters
		p.mu.Unlock()
		req.complete(ErrClosed)
		return false
	}
	if len(p.waiting) >= p.cfg.MaxWaiters {
		p.mu.Unlock()
		e.recordShed(g, n, shedQueueFull)
		e.admitReject(req)
		return false
	}
	p.waiting = append(p.waiting, w)
	p.mu.Unlock()
	e.admitBlocked.Add(1)
	// Credits may have freed between the failed acquire and the park;
	// a drain pass closes the window so the waiter cannot stall on a
	// release that already happened.
	e.admitDrain()
	return false
}

// admitRelease returns a completed request's credits and drains the
// block queue. Called from Request.complete after winning the
// exactly-once CAS — the single chokepoint every completion path
// (ack, FIN, timeout, NACK, cancel, failGate, Close) funnels through,
// which is what makes the zero-leaked-credits invariant hold.
func (e *Engine) admitRelease(r *Request) {
	g := r.admitGate
	if g == nil {
		return
	}
	n := r.admitBytes
	r.admitGate, r.admitBytes = nil, 0
	if g.admitL.Release(n) {
		e.recordDegrade(g, g.admitL)
	}
	if e.admit.eng.Release(n) {
		e.recordDegrade(g, e.admit.eng)
	}
	e.admitDrain()
}

// admitDrain admits parked submissions head-of-line: strictly FIFO, so
// a large submission at the head is never starved by smaller ones
// slipping past it. Iterative — a drained injection that completes
// synchronously re-enters through the more flag instead of recursing.
func (e *Engine) admitDrain() {
	p := e.admit
	p.mu.Lock()
	if p.draining {
		p.more = true
		p.mu.Unlock()
		return
	}
	p.draining = true
	for {
		p.more = false
		var ready []*admitWaiter
		for len(p.waiting) > 0 {
			w := p.waiting[0]
			if !w.g.admitAcquire(w.n) {
				break
			}
			e.admitAdmitted.Add(1)
			w.req.admitGate, w.req.admitBytes = w.g, w.n
			copy(p.waiting, p.waiting[1:])
			p.waiting[len(p.waiting)-1] = nil
			p.waiting = p.waiting[:len(p.waiting)-1]
			ready = append(ready, w)
		}
		if len(ready) == 0 && !p.more {
			p.draining = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		for _, w := range ready {
			if w.recv {
				w.g.injectRecv(w.req)
			} else {
				w.g.injectSend(w.req, w.tag, w.data)
			}
		}
		p.mu.Lock()
	}
}

// sweepAdmit expires parked submissions that waited past their budget.
// Runs from the deadline sweep whenever admission is on — a blocked
// submitter must never hang.
func (e *Engine) sweepAdmit(now int64) {
	p := e.admit
	var expired []*admitWaiter
	p.mu.Lock()
	old := p.waiting
	kept := old[:0]
	for _, w := range old {
		if now >= w.expire {
			expired = append(expired, w)
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(old); i++ {
		old[i] = nil
	}
	p.waiting = kept
	p.mu.Unlock()
	for _, w := range expired {
		e.admitExpired.Add(1)
		e.deadlineExpired.Add(1)
		e.recordShed(w.g, w.n, shedExpired)
		w.req.complete(ErrDeadlineExpired)
	}
	if len(expired) > 0 {
		// An expired head may unblock smaller submissions behind it.
		e.admitDrain()
	}
}

// admitTakeWaiters removes and returns parked submissions bound to g
// — or every parked submission when g is nil (engine close) — in FIFO
// order. The caller completes them outside the plane's lock.
func (e *Engine) admitTakeWaiters(g *Gate) []*admitWaiter {
	p := e.admit
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if g == nil {
		out := p.waiting
		p.waiting = nil
		return out
	}
	var out []*admitWaiter
	old := p.waiting
	kept := old[:0]
	for _, w := range old {
		if w.g == g {
			out = append(out, w)
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(old); i++ {
		old[i] = nil
	}
	p.waiting = kept
	return out
}

// admitCancel withdraws a parked submission (satellite of the cancel
// contract: an admission-blocked send was never injected, so it can
// always be taken back). Reports whether r was found and removed; the
// caller completes it with ErrCanceled.
func (e *Engine) admitCancel(r *Request) bool {
	p := e.admit
	if p == nil {
		return false
	}
	p.mu.Lock()
	for i, w := range p.waiting {
		if w.req == r {
			copy(p.waiting[i:], p.waiting[i+1:])
			p.waiting[len(p.waiting)-1] = nil
			p.waiting = p.waiting[:len(p.waiting)-1]
			p.mu.Unlock()
			// Removing a head-of-line waiter may unblock the queue.
			e.admitDrain()
			return true
		}
	}
	p.mu.Unlock()
	return false
}

// AdmitInfo is a point-in-time snapshot of the admission plane, for
// metrics and health export. The zero value (Enabled false) means
// admission is off.
type AdmitInfo struct {
	// Enabled reports whether the engine runs admission control.
	Enabled bool
	// Requests and Bytes are the engine-wide credits currently held.
	Requests int
	// Bytes is the engine-wide payload-byte credits currently held.
	Bytes int64
	// MaxRequests and MaxBytes are the engine-wide budgets.
	MaxRequests int
	// MaxBytes is the engine-wide payload-byte budget.
	MaxBytes int64
	// Waiting counts submissions parked by the blocking policy.
	Waiting int
	// Degraded reports whether any scope (engine or gate) is past its
	// high watermark. Degraded is not dead: the engine is shedding
	// load by design and /healthz must keep reporting it live.
	Degraded bool
}

// AdmitInfo returns the admission plane's current state; the zero
// value when admission is off.
func (e *Engine) AdmitInfo() AdmitInfo {
	p := e.admit
	if p == nil {
		return AdmitInfo{}
	}
	s := p.eng.Snapshot()
	p.mu.Lock()
	waiting := len(p.waiting)
	p.mu.Unlock()
	deg := s.Degraded
	if !deg {
		for _, g := range e.Gates() {
			if g.admitL != nil && g.admitL.Degraded() {
				deg = true
				break
			}
		}
	}
	return AdmitInfo{
		Enabled:     true,
		Requests:    s.Requests,
		Bytes:       s.Bytes,
		MaxRequests: s.MaxRequests,
		MaxBytes:    s.MaxBytes,
		Waiting:     waiting,
		Degraded:    deg,
	}
}

// InflightStates counts the engine's live protocol states — send and
// receive rendezvous halves plus unacknowledged eager messages — the
// "engine queue depth" admission control exists to bound. The chaos
// harness samples its peak: bounded with admission on, unbounded in
// the ablation.
func (e *Engine) InflightStates() int {
	n := 0
	for _, g := range e.Gates() {
		g.mu.Lock()
		n += len(g.sendRdv) + len(g.rdvRecv) + len(g.eagerPend)
		g.mu.Unlock()
	}
	return n
}

// deadlineRailSentinel marks the pull-offer entry that carries a
// request deadline instead of a rail key: no real rail index can reach
// it, and decoders that predate deadlines skip it as out of range.
const deadlineRailSentinel = ^uint32(0)

// extDeadline scans an RTS imm extension for the deadline sentinel
// entry; 0 means the sender attached no deadline.
func extDeadline(ext []byte) int64 {
	for i := 0; ; i++ {
		rail, key, ok := offerEntry(ext, i)
		if !ok {
			return 0
		}
		if rail == deadlineRailSentinel {
			return int64(key)
		}
	}
}
