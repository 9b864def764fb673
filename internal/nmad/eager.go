package nmad

import (
	"errors"

	"pioman/internal/trace"
)

// Reliable eager delivery.
//
// Rendezvous traffic recovers from frame loss through the handshake
// timeout (timeout.go); until this file existed the eager path did not.
// An eager frame was fire-and-forget with buffered semantics: the send
// request completed when the frame hit the wire, and a dropped frame
// simply never arrived — the receiver's Irecv waited forever and the
// sender never knew. Lossy chaos scenarios therefore could not carry
// the small-message traffic that dominates real workloads (the AMT
// studies in PAPERS.md find eager injection, not bulk transfers, is
// the bottleneck class).
//
// The mechanism mirrors the rendezvous design on the same pluggable
// clock and the same sweep task:
//
//   - every eager message is sequence-numbered by its per-gate MsgID
//     (already assigned by Isend) and tracked in the gate's pending
//     window (Gate.eagerPend) until the peer acknowledges it;
//   - the receiver acks every eager arrival with a KindEagerAck control
//     frame — including duplicates, whose payload it drops after
//     checking the gate's msgID dedup log (Gate.seenEager), so a lost
//     ack cannot double-deliver;
//   - the deadline sweep (sweepDeadlines) retransmits unacknowledged
//     messages with exponential backoff and, past RdvRetries attempts,
//     completes the send visibly with ErrEagerTimeout;
//   - a transiently backpressured eager frame is left in the pending
//     window instead of failing fast: the sweeper retries it once the
//     peer's ring drains.
//
// The send request consequently completes on acknowledgement, not on
// wire-out: "done" now means delivered (or visibly failed), which is
// what lets a chaos scenario assert that eager traffic either arrives
// byte-exact or fails loudly. There is no fire-and-forget mode: the
// chaos suite's broken-eager scenario proves the window load-bearing by
// pushing every retransmission past its horizon, under which a lossy
// run must hang.
//
// The dedup log is bounded (settledLogSize entries, FIFO eviction)
// like the rendezvous settled logs: a duplicate arriving after
// eviction would deliver again, but retransmission stops at the first
// ack, so the window only needs to cover the in-flight duplicates of
// recent messages, not all history.

// ErrEagerTimeout reports an eager message that exhausted its
// retransmission budget without an acknowledgement: the peer (or the
// fabric between) swallowed every attempt. The message was not
// delivered — or its acks were lost, in which case the receiver may
// hold the payload; either way the sender is told instead of left
// assuming buffered success.
var ErrEagerTimeout = errors.New("nmad: eager message timed out unacknowledged")

// eagerState tracks one unacknowledged eager message in the sender's
// pending window. Guarded by Gate.mu like the eagerPend map that holds
// it; the data slice references the caller's buffer, which the Isend
// contract keeps valid until the request completes.
type eagerState struct {
	req  *Request
	data []byte
	tag  uint64
	retryTimer
}

// getEager takes an eager pending state from the pool.
func (e *Engine) getEager() *eagerState {
	st, _ := e.eagerPool.Get().(*eagerState)
	if st == nil {
		st = &eagerState{}
	}
	return st
}

// putEager recycles an eager pending state.
func (e *Engine) putEager(st *eagerState) {
	st.req = nil
	st.data = nil
	st.tag = 0
	st.retryTimer = retryTimer{}
	e.eagerPool.Put(st)
}

// trackEager enters an eager message into the pending window before
// its first frame is submitted, so the ack — or the timeout sweep —
// owns the request's completion from here on. False: the engine has
// closed, and nothing owns it.
func (e *Engine) trackEager(g *Gate, msgID, tag uint64, data []byte, req *Request) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.stopped.Load() { // Close took the gate's requests: see takeInflight
		return false
	}
	st := e.getEager()
	st.req, st.data, st.tag = req, data, tag
	st.deadline = e.clock() + e.cfg.RdvTimeout
	g.eagerPend[msgID] = st
	return true
}

// recvEager handles one inbound eager message (plain or unpacked from
// an aggregate): acknowledge, dedup, deliver.
func (e *Engine) recvEager(g *Gate, hdr Header, payload []byte) {
	g.mu.Lock()
	dup := g.seenEager.has(hdr.MsgID)
	if !dup {
		g.seenEager.add(hdr.MsgID)
	}
	g.mu.Unlock()
	// Ack duplicates too: a re-ack is exactly what a sender whose
	// previous ack was lost is waiting for.
	g.sendControl(KindEagerAck, hdr.Tag, hdr.MsgID, 0, 0)
	if dup {
		return
	}
	g.matchOrStash(inbound{hdr: hdr, payload: payload})
}

// takeEager removes message id from the pending window; nil when an
// ack, a failure or the sweep already took it.
func (g *Gate) takeEager(id uint64) *eagerState {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.eagerPend[id]
	delete(g.eagerPend, id)
	return st
}

// eagerAcked completes the pending eager message an ack names. Late or
// duplicated acks find no entry and fall on the floor.
func (e *Engine) eagerAcked(g *Gate, hdr Header) {
	st := g.takeEager(hdr.MsgID)
	if st == nil {
		return
	}
	e.eagerAcks.Add(1)
	req := st.req
	e.putEager(st)
	if req.traceID != 0 {
		// The ack closes the eager send's final phase (wire-out → ack).
		e.rec.Record(int(req.traceRing), trace.EvAckWaitEnd, req.traceID, 0)
	}
	req.complete(nil)
}

// failEager fails the pending eager message with the given error — the
// wire path's routing for an eager frame that could not be sent at
// all (every rail dead, a non-transient send error). No-op when the
// message already acked or timed out.
func (e *Engine) failEager(g *Gate, msgID uint64, err error) {
	st := g.takeEager(msgID)
	if st == nil {
		return
	}
	req := st.req
	e.putEager(st)
	req.complete(err)
}
