package nmad

import (
	"errors"
	"sort"
	"sync/atomic"

	"pioman/internal/core"
	"pioman/internal/trace"
)

// Rendezvous handshake timeouts.
//
// The rendezvous protocol is a conversation — RTS, then the receiver's
// reads, then FIN — and on a lossy fabric any line of it can vanish
// while both rails stay perfectly alive. Without a deadline that is a
// silent mutual hang: the sender pins its payload waiting for a FIN
// that is never coming, the receiver holds a half-read buffer waiting
// for reads that were swallowed. Rail death is handled separately
// (railFailed); this file handles loss on a live rail.
//
// The cure is the classic one: every open rendezvous half carries a
// deadline on the engine's clock. A sweep task (one per engine, a
// one-shot timer on the same task engine as the polling work that
// re-arms itself RdvTimeout/8 after each run) retransmits the stalled
// step with exponential backoff — the sender re-sends its RTS, the
// receiver re-issues its outstanding reads — and after RdvRetries
// unanswered rounds fails the request visibly with ErrRdvTimeout and
// best-effort NACKs the peer, so neither side waits forever and nothing
// stays pinned.
//
// A TCP rail cannot lose a read while it lives, so on TCP a transfer is
// slow, never lost: a receive whose unsettled reads are all in flight
// there gives its retry back, and a send whose payload its TCP rail is
// serving disarms its timer. A transfer of any length fits any budget.
//
// Retransmission makes duplicates a fact of life, so the protocol
// handlers are hardened to be idempotent: a second RTS for a live
// handshake is ignored instead of re-matched, a settled-rendezvous log
// (bounded, per gate) lets late control frames for finished handshakes
// be answered or ignored instead of NACKing a healthy peer, and a read
// completion counts only for a chunk still reading, so a re-posted read
// cannot count its bytes twice.
//
// The clock is the task engine's (core.Config.Clock), so a
// deterministic harness can run the whole state machine on a virtual
// fabric clock: timeouts then fire at exact modelled instants, and a
// chaos scenario replays byte-identically from its seed.

// ErrRdvTimeout reports a rendezvous handshake that exhausted its
// retransmission budget: the peer (or the fabric between) swallowed
// every attempt. The request's resources are released; the transfer
// did not happen.
var ErrRdvTimeout = errors.New("nmad: rendezvous handshake timed out")

// ErrCanceled reports a posted receive removed by Request.Cancel
// before anything matched it.
var ErrCanceled = errors.New("nmad: receive canceled")

// settledLogSize bounds each settled-rendezvous log. Old entries are
// evicted FIFO; a duplicate arriving after eviction is merely NACKed
// like an unknown handshake, which the peer treats as a visible failure
// rather than a hang — the log is an optimization for the common
// duplicate window, not a correctness requirement.
const settledLogSize = 512

// settledLog remembers the msgIDs of one gate's recently finished
// rendezvous halves (or delivered eager messages) so late or duplicated
// frames can be recognized. Guarded by Gate.mu. Storage is allocated on
// the first add: a gate that never settles anything — most gates of a
// full-mesh cluster — carries three empty headers.
type settledLog struct {
	set  map[uint64]struct{}
	ring []uint64
	pos  int
}

// add records a settled id, evicting the oldest once full. False: id
// was already recorded.
func (l *settledLog) add(id uint64) bool {
	if l.set == nil {
		l.set = make(map[uint64]struct{}, settledLogSize)
		l.ring = make([]uint64, settledLogSize)
	}
	if _, ok := l.set[id]; ok {
		return false
	}
	if len(l.set) >= settledLogSize {
		delete(l.set, l.ring[l.pos])
	}
	l.ring[l.pos] = id
	l.pos = (l.pos + 1) % settledLogSize
	l.set[id] = struct{}{}
	return true
}

// has reports whether id settled recently.
func (l *settledLog) has(id uint64) bool {
	_, ok := l.set[id]
	return ok
}

// retryTimer is the timeout state every in-flight protocol state
// carries — a send rendezvous waiting on its FIN, a receive
// rendezvous waiting on bytes, an unacknowledged eager message: the
// current attempt's deadline on the engine clock (0: unarmed) and the
// retransmissions already burned. Guarded by the owning Gate.mu.
type retryTimer struct {
	deadline int64
	retries  int
}

// sweepVerdict is what the deadline sweep does with one in-flight state.
type sweepVerdict uint8

const (
	sweepWait    sweepVerdict = iota // nothing due
	sweepRetry                       // attempt timed out: retransmit, backed off
	sweepGiveUp                      // retry budget spent: fail with the family's timeout error
	sweepExpired                     // submitter's deadline passed: fail with ErrDeadlineExpired
)

// due is the one expire / back-off / give-up decision the three state
// kinds share. abs is the submitter's absolute deadline (0: none): once
// it passes, the doomed state is cancelled instead of retransmitted
// into the ground. Otherwise an attempt past its deadline is retried
// with the timeout doubled, RdvRetries times, and then given up on.
// The caller holds the gate's mu and removes the state on either
// failing verdict.
func (t *retryTimer) due(now, abs int64, cfg *Config) sweepVerdict {
	switch {
	case abs != 0 && now >= abs:
		return sweepExpired
	case t.deadline == 0 || now < t.deadline:
		return sweepWait
	case t.retries >= cfg.RdvRetries:
		return sweepGiveUp
	}
	t.retries++
	t.deadline = now + cfg.RdvTimeout<<uint(t.retries)
	return sweepRetry
}

// sweepAct is one state the sweep found due, with everything its wire
// action needs copied out under the gate's mu: once the lock drops the
// state may complete and recycle under the retransmission in flight.
type sweepAct struct {
	g       *Gate
	msgID   uint64
	tag     uint64
	verdict sweepVerdict // never sweepWait
	retries int
	total   uint32
	req     *Request // failing verdicts: the request to complete

	offer []byte        // send retry: the RTS pull offer
	recv  *recvRdvState // recv retry: the state to re-drive, sweep-referenced
	data  []byte        // eager retry: the payload
}

// sortActs orders one gate's actions by msgID. Map iteration order is
// randomized, and a deterministic harness needs retransmissions to hit
// the simulated fabric in a reproducible order; the sweep visits gates
// in id order, so per-gate msgID order makes the whole pass ordered by
// (gate, msgID).
func sortActs(acts []sweepAct) {
	sort.Slice(acts, func(i, j int) bool { return acts[i].msgID < acts[j].msgID })
}

// sweepFailed accounts one state the sweep is failing — the EvTimeout
// instant (family: 0 send rendezvous, 1 receive rendezvous, 2 eager)
// and the deadline counter or the family's timeout counter — and
// returns the error its request completes with.
func (e *Engine) sweepFailed(a sweepAct, dir, family uint64, timeouts *atomic.Uint64, timeoutErr error) error {
	if r := e.rec; r != nil {
		r.Record(a.g.id, trace.EvTimeout, a.g.spanID(dir, 0, a.msgID), family)
	}
	if a.verdict == sweepExpired {
		e.deadlineExpired.Add(1)
		return ErrDeadlineExpired
	}
	timeouts.Add(1)
	return timeoutErr
}

// armSweep arms the deadline sweep's one-shot timer for clock time at:
// timeouts are progression, so they ride the task engine like
// everything else in the paper's design.
func (e *Engine) armSweep(at int64) {
	if err := e.tasks.SubmitAt(&e.sweep, at); err != nil {
		panic(err)
	}
}

func sweepTask(arg any) bool { arg.(*Engine).sweepDeadlines(); return true }

// rearmSweep is the sweep timer's OnDone: until the engine closes, arm
// the next sweep RdvTimeout/8 after the one that just ran.
func rearmSweep(t *core.Task) {
	if e := t.Arg.(*Engine); !e.stopped.Load() {
		t.Reset()
		e.armSweep(e.lastProgress.Load() + e.cfg.RdvTimeout/8)
	}
}

// sweepDeadlines scans every gate's rendezvous maps and eager pending
// window for expired deadlines and acts: retransmit with backoff, or
// fail visibly past the budget. Each family collects over all gates (in
// id order, see sortActs) before any of its wire actions run.
func (e *Engine) sweepDeadlines() {
	now := e.tasks.Now()
	// The sweep's clock read doubles as the engine-liveness stamp
	// /healthz compares against, and as the base of the next sweep.
	e.lastProgress.Store(now)

	if e.admit != nil {
		e.sweepAdmit(now)
	}
	gates := e.Gates()
	e.sweepEager(now, gates)
	var sends, recvs []sweepAct
	for _, g := range gates {
		sends, recvs = g.dueRendezvous(now, sends, recvs)
	}
	for _, a := range sends {
		e.sweepSend(a)
	}
	for _, a := range recvs {
		e.sweepRecv(a)
	}
}

// dueRendezvous appends the gate's due send and receive rendezvous
// halves to the two action lists, removing and settling the ones that
// fail (a failed send's registrations are released on the spot).
func (g *Gate) dueRendezvous(now int64, sends, recvs []sweepAct) ([]sweepAct, []sweepAct) {
	cfg := &g.eng.cfg
	s0, r0 := len(sends), len(recvs)
	g.mu.Lock()
	for id, st := range g.sendRdv {
		a := sweepAct{g: g, msgID: id, tag: st.tag, req: st.req}
		switch a.verdict = st.due(now, st.req.deadline, cfg); a.verdict {
		case sweepWait:
			continue
		case sweepRetry:
			if g.offerServing(st.offer) {
				// The receiver is reading: the handshake can only
				// finish (FIN), fail (NACK, rail death) or expire.
				st.retryTimer = retryTimer{}
				continue
			}
			// Copy the offer: the state may complete and recycle
			// (resetting its offer storage) while the retransmitted RTS
			// is in flight.
			a.total, a.retries = st.total, st.retries
			a.offer = append([]byte(nil), st.offer...)
		default:
			delete(g.sendRdv, id)
			g.settledSend.add(id)
			st.releaseRegs()
		}
		sends = append(sends, a)
	}
	for id, st := range g.rdvRecv {
		a := sweepAct{g: g, msgID: id, tag: st.tag, req: st.req}
		switch a.verdict = st.due(now, st.absDeadline, cfg); a.verdict {
		case sweepWait:
			continue
		case sweepRetry:
			if g.readsInFlight(st) {
				st.retries-- // slow, not lost: give the retry back
				continue
			}
			if !st.beginSweep() {
				continue
			}
			a.recv, a.retries = st, st.retries
		default:
			// The retry budget is spent, or the sender's propagated
			// deadline passed: stop reading bytes whose submitter has
			// already given up.
			delete(g.rdvRecv, id)
			g.settledRecv.add(id)
			st.markFailed()
		}
		recvs = append(recvs, a)
	}
	g.mu.Unlock()
	sortActs(sends[s0:])
	sortActs(recvs[r0:])
	return sends, recvs
}

// sweepSend acts on one due send rendezvous: re-send the RTS, or fail
// the send and tell the receiver.
func (e *Engine) sweepSend(a sweepAct) {
	g := a.g
	if a.verdict != sweepRetry {
		err := e.sweepFailed(a, trace.DirSend, 0, &e.rdvTimeouts, ErrRdvTimeout)
		// Best-effort: tell the receiver its half is orphaned so it
		// fails now instead of burning its own retry budget.
		g.sendControl(KindRdvNack, a.tag, a.msgID, nackRecv, 0)
		a.req.complete(err)
		return
	}
	e.rdvRetries.Add(1)
	if r := e.rec; r != nil {
		r.Record(g.id, trace.EvRetransmit, g.spanID(trace.DirSend, 0, a.msgID), uint64(a.retries))
	}
	rail := g.pickEager()
	if rail < 0 {
		return // gate is dying; the rail-death sweeps own the fallout
	}
	p := g.packet()
	p.Hdr = Header{Kind: KindRTS, Tag: a.tag, MsgID: a.msgID, Total: a.total}
	p.ext = a.offer
	p.rail = rail
	g.sendPacket(p)
}

// sweepRecv acts on one due receive rendezvous: re-issue its unsettled
// reads, or fail the receive and tell the sender. A retry holds a
// beginSweep reference, released here.
func (e *Engine) sweepRecv(a sweepAct) {
	g, st := a.g, a.recv
	if a.verdict != sweepRetry {
		err := e.sweepFailed(a, trace.DirRecv, 1, &e.rdvTimeouts, ErrRdvTimeout)
		g.sendControl(KindRdvNack, a.tag, a.msgID, nackSend, 0)
		a.req.complete(err)
		return
	}
	e.rdvRetries.Add(1)
	if r := e.rec; r != nil {
		r.Record(g.id, trace.EvRetransmit, g.spanID(trace.DirRecv, 0, a.msgID), uint64(a.retries))
	}
	// Re-post every unsettled chunk: a blackholed read is posted again
	// (a TCP rail treats the re-post of a read in flight as a no-op).
	e.reissue(g, st, func(c *rdvChunk) bool { return c.state != chunkDone })
}

// sweepEager is the eager half of the deadline sweep: retransmit
// unacknowledged eager messages with exponential backoff, and past the
// retry budget fail them visibly with ErrEagerTimeout. Retransmissions
// go as plain KindEager frames regardless of the aggregation strategy
// — re-aggregating a retry would re-enter the flush path for one stale
// message. A retransmission racing the original's late ack is harmless:
// the receiver's dedup log drops the payload and re-acks, and the
// second ack finds no pending entry.
func (e *Engine) sweepEager(now int64, gates []*Gate) {
	var acts []sweepAct
	for _, g := range gates {
		from := len(acts)
		g.mu.Lock()
		for id, st := range g.eagerPend {
			a := sweepAct{g: g, msgID: id, tag: st.tag, req: st.req}
			switch a.verdict = st.due(now, st.req.deadline, &e.cfg); a.verdict {
			case sweepWait:
				continue
			case sweepRetry:
				a.data, a.retries = st.data, st.retries
			default:
				delete(g.eagerPend, id)
			}
			acts = append(acts, a)
		}
		g.mu.Unlock()
		sortActs(acts[from:])
	}
	for _, a := range acts {
		g := a.g
		if a.verdict != sweepRetry {
			a.req.complete(e.sweepFailed(a, trace.DirSend, 2, &e.eagerTimeouts, ErrEagerTimeout))
			continue
		}
		rail := g.pickEager()
		if rail < 0 {
			continue // gate is dying; the rail-death sweeps own the fallout
		}
		e.eagerRetries.Add(1)
		if r := e.rec; r != nil {
			r.Record(g.id, trace.EvEagerRetry, g.spanID(trace.DirSend, 0, a.msgID), uint64(a.retries))
		}
		p := g.packet()
		p.Hdr = Header{Kind: KindEager, Tag: a.tag, MsgID: a.msgID, Total: uint32(len(a.data))}
		p.Payload = a.data
		p.rail = rail
		p.pend = append(p.pend[:0], a.msgID)
		g.sendPacket(p)
	}
}

// IdleReport is Gate.CheckIdle's leak accounting: everything that
// should be zero on a quiesced gate. RegCached is informational —
// interned idle registrations are the cache working as designed — and
// does not affect Clean.
type IdleReport struct {
	// SendRendezvous counts in-flight send-side rendezvous states.
	SendRendezvous int
	// RecvRendezvous counts in-flight receive-side rendezvous reads.
	RecvRendezvous int
	// PostedRecvs counts posted receives nothing has matched.
	PostedRecvs int
	// UnexpectedMsgs counts arrived messages nothing has received.
	UnexpectedMsgs int
	// PendingAggr counts small sends queued for aggregation.
	PendingAggr int
	// EagerPending counts eager messages still in the retransmission
	// window — sent but never acknowledged. A quiesced gate holding
	// any is a leak: the sweep has neither delivered nor visibly
	// failed them, and their send requests are still incomplete.
	EagerPending int
	// RegInFlight counts interned registrations still referenced by a
	// transfer — pinned memory a quiesced gate must not hold.
	RegInFlight int
	// RegCached counts idle interned registrations (by design; see
	// fabric.RegCache).
	RegCached int
	// AdmitRequests counts admission request credits the gate's ledger
	// still holds — zero on a quiesced gate, or a completion path
	// leaked them.
	AdmitRequests int
	// AdmitBytes counts admission byte credits the gate's ledger still
	// holds.
	AdmitBytes int64
	// AdmitWaiting counts submissions for this gate still parked in the
	// admission queue.
	AdmitWaiting int
}

// Clean reports whether the gate holds no protocol state or pinned
// resources — the invariant a chaos scenario checks after quiesce.
func (r IdleReport) Clean() bool {
	return r.SendRendezvous == 0 && r.RecvRendezvous == 0 && r.PostedRecvs == 0 &&
		r.UnexpectedMsgs == 0 && r.PendingAggr == 0 && r.EagerPending == 0 &&
		r.RegInFlight == 0 && r.AdmitRequests == 0 && r.AdmitBytes == 0 &&
		r.AdmitWaiting == 0
}

// CheckIdle audits the gate for leaked protocol state: rendezvous
// halves that never settled, receives nothing matched, messages nobody
// received, registrations still pinned. A gate whose traffic has fully
// quiesced — every request completed or visibly failed — must report
// Clean; anything else is a leak.
func (g *Gate) CheckIdle() IdleReport {
	e := g.eng
	var rep IdleReport
	g.mu.Lock()
	rep.SendRendezvous = len(g.sendRdv)
	rep.RecvRendezvous = len(g.rdvRecv)
	rep.EagerPending = len(g.eagerPend)
	for _, q := range g.recvQ {
		rep.PostedRecvs += len(q.items) - q.head
	}
	for _, q := range g.unexpected {
		rep.UnexpectedMsgs += len(q.items) - q.head
	}
	g.mu.Unlock()
	g.aggMu.Lock()
	rep.PendingAggr = len(g.aggPending)
	g.aggMu.Unlock()
	for _, c := range g.regCaches {
		st := c.Stats()
		rep.RegInFlight += st.LiveRefs
		rep.RegCached += st.Entries
	}
	if g.admitL != nil {
		rep.AdmitRequests, rep.AdmitBytes = g.admitL.Inflight()
		p := e.admit
		p.mu.Lock()
		for _, w := range p.waiting {
			if w.g == g {
				rep.AdmitWaiting++
			}
		}
		p.mu.Unlock()
	}
	return rep
}
