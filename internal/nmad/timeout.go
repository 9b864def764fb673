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
// handshake is ignored instead of re-matched, an RTS the gate's receive
// window (window.go) holds as settled is answered with its FIN again,
// a FIN or NACK for a send already gone is ignored, and a read
// completion counts only for a chunk still reading, so a re-posted read
// cannot count its bytes twice. The sweep also computes each gate's
// floor, which closes the holes in the peer's window (window.go).
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

// sweepDeadlines scans every gate's eager pending window and rendezvous
// maps for expired deadlines and acts: retransmit with backoff, or fail
// visibly past the budget. Every gate is collected (in id order, see
// sortActs) before any wire action runs, and the actions run by family:
// eager, then send rendezvous, then receive rendezvous.
func (e *Engine) sweepDeadlines() {
	now := e.tasks.Now()
	// The sweep's clock read doubles as the engine-liveness stamp
	// /healthz compares against, and as the base of the next sweep.
	e.lastProgress.Store(now)

	if e.admit != nil {
		e.sweepAdmit(now)
	}
	var eager, sends, recvs []sweepAct
	for _, g := range e.Gates() {
		eager, sends, recvs = g.dueStates(now, eager, sends, recvs)
	}
	e.sweepEager(eager)
	for _, a := range sends {
		e.sweepSend(a)
	}
	for _, a := range recvs {
		e.sweepRecv(a)
	}
}

// dueStates appends the gate's due eager messages and send and receive
// rendezvous halves to the three action lists, removing the ones that
// fail (a failed send's registrations are released on the spot, a
// failed receive is settled in the receive window). It also stores the
// gate's floor: the lowest msgID it found in flight, or the next one to
// be drawn (a send failed here is passed by the next sweep's floor).
func (g *Gate) dueStates(now int64, eager, sends, recvs []sweepAct) ([]sweepAct, []sweepAct, []sweepAct) {
	cfg := &g.eng.cfg
	e0, s0, r0 := len(eager), len(sends), len(recvs)
	g.mu.Lock()
	floor := g.lastMsgID + 1
	for id, st := range g.eagerPend {
		floor = min(floor, id)
		a := sweepAct{g: g, msgID: id, tag: st.tag, req: st.req}
		switch a.verdict = st.due(now, st.req.deadline, cfg); a.verdict {
		case sweepWait:
			continue
		case sweepRetry:
			a.data, a.retries = st.data, st.retries
		default:
			delete(g.eagerPend, id)
		}
		eager = append(eager, a)
	}
	for id, st := range g.sendRdv {
		floor = min(floor, id)
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
			g.recvWin.add(id)
			st.markFailed()
		}
		recvs = append(recvs, a)
	}
	g.floor.Store(floor)
	g.mu.Unlock()
	sortActs(eager[e0:])
	sortActs(sends[s0:])
	sortActs(recvs[r0:])
	return eager, sends, recvs
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
	if g.pickEager() < 0 {
		return // gate is dying; the rail-death sweeps own the fallout
	}
	g.push(pendingSend{hdr: Header{Kind: KindRTS, Tag: a.tag, MsgID: a.msgID, Total: a.total}, ext: a.offer})
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

// sweepEager acts on the due eager messages: retransmit them with
// exponential backoff, and past the retry budget fail them visibly with
// ErrEagerTimeout. One gate's retransmissions go onto its lane
// together, in msgID order, so under StrategyAggreg they pack into
// aggregates like first sends. A retransmission racing the original's
// late ack is harmless: the receiver's window drops the payload and
// re-acks, and the second ack finds no pending entry.
func (e *Engine) sweepEager(acts []sweepAct) {
	var retries []pendingSend
	for i, a := range acts {
		g := a.g
		if a.verdict != sweepRetry {
			a.req.complete(e.sweepFailed(a, trace.DirSend, 2, &e.eagerTimeouts, ErrEagerTimeout))
		} else if g.pickEager() >= 0 { // else the gate is dying; the rail-death sweeps own the fallout
			e.eagerRetries.Add(1)
			if r := e.rec; r != nil {
				r.Record(g.id, trace.EvEagerRetry, g.spanID(trace.DirSend, 0, a.msgID), uint64(a.retries))
			}
			retries = append(retries, pendingSend{hdr: Header{Kind: KindEager, Tag: a.tag, MsgID: a.msgID, Total: uint32(len(a.data))}, payload: a.data})
		}
		if len(retries) > 0 && (i+1 == len(acts) || acts[i+1].g != g) {
			g.push(retries...)
			retries = retries[:0]
		}
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
	// PendingAggr counts eager messages queued on the gate's send lane.
	// Control frames the lane still owes the peer are not counted: no
	// request waits on them, and Close lingers for them.
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
	g.lane.mu.Lock()
	for _, f := range g.lane.pending {
		if f.hdr.Kind == KindEager {
			rep.PendingAggr++
		}
	}
	g.lane.mu.Unlock()
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
