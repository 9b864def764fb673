package nmad

import (
	"errors"
	"math/bits"
	"slices"

	"pioman/internal/trace"
)

// Reliable eager delivery (DESIGN.md "Reliable eager"). An eager send
// completes on acknowledgement, not on wire-out: "done" means delivered
// or visibly failed, so a lossy chaos scenario can assert that small
// messages arrive byte-exact or fail loudly. The mechanism mirrors the
// rendezvous design on the same clock and the same sweep task:
//
//   - every eager message is sequence-numbered by its per-gate MsgID
//     and tracked in the gate's pending window (Gate.eagerPend) until
//     the peer acknowledges it;
//   - the receiver acks every eager arrival — including duplicates,
//     whose payload it drops after checking the gate's receive window
//     (Gate.recvWin, window.go), so a lost ack cannot double-deliver;
//     the sub-frames of an aggregate share as few acks as their ids
//     allow (sendAcks), not one ack each;
//   - the deadline sweep (sweepDeadlines) retransmits unacknowledged
//     messages with exponential backoff and, past RdvRetries attempts,
//     completes the send visibly with ErrEagerTimeout;
//   - a backpressured eager frame is left in the pending window: the
//     sweep retries it once the peer's ring drains.
//
// There is no fire-and-forget mode: the chaos suite's broken-eager
// scenario proves the window load-bearing by pushing every
// retransmission past its horizon, under which a lossy run must hang.

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

// trackEager draws the message's msgID and enters it into the pending
// window before its first frame is submitted, so the ack — or the
// timeout sweep — owns the request's completion from here on. False:
// the engine has closed, and nothing owns it.
func (e *Engine) trackEager(g *Gate, tag uint64, data []byte, req *Request) (uint64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.stopped.Load() { // Close took the gate's requests: see takeInflight
		return 0, false
	}
	st := e.getEager()
	st.req, st.data, st.tag = req, data, tag
	st.deadline = e.tasks.Now() + e.cfg.RdvTimeout
	msgID := g.drawMsgID(req, trace.EvInjectBegin, len(data))
	g.eagerPend[msgID] = st
	return msgID, true
}

// recvAggr unpacks an aggregate frame and settles its sub-frames
// through recvEager, up to 64 at a time.
func (e *Engine) recvAggr(g *Gate, floor uint64, payload []byte) {
	var chunk [64]inbound
	n := 0
	unpackAggr(payload, func(hdr Header, sub []byte) {
		chunk[n] = inbound{hdr: hdr, payload: sub}
		if n++; n == len(chunk) {
			e.recvEager(g, floor, chunk[:n])
			n = 0
		}
	})
	if n > 0 {
		e.recvEager(g, floor, chunk[:n])
	}
}

// recvEager handles up to 64 inbound eager messages — one plain frame,
// or a chunk of an aggregate, whose sender stamped floor: raise the
// receive window to the floor and record every id it accepts under one
// g.mu acquisition, acknowledge them, then match the new ones in frame
// order. An id is acked only once it is in the window, so a
// retransmission the ack crosses cannot deliver twice.
func (e *Engine) recvEager(g *Gate, floor uint64, msgs []inbound) {
	var ids [64]uint64
	var fresh uint64 // bit i: msgs[i] is delivered now
	n := 0
	g.mu.Lock()
	g.recvWin.raise(floor)
	for i := range msgs {
		id := msgs[i].hdr.MsgID
		if !g.recvWin.accepts(id) {
			continue
		}
		if g.recvWin.add(id) {
			fresh |= 1 << i
		}
		ids[n] = id
		n++
	}
	g.mu.Unlock()
	// Ack duplicates too: a re-ack is exactly what a sender whose
	// previous ack was lost is waiting for.
	g.sendAcks(msgs[0].hdr.Tag, ids[:n])
	for i := range msgs {
		if fresh&(1<<i) != 0 {
			g.matchOrStash(msgs[i])
		}
	}
}

// sendAcks acknowledges ids (sorted in place; duplicates allowed) in
// the fewest KindEagerAck frames. Each frame's mask rides Offset (low
// half) and Total (high half); tag is informational.
func (g *Gate) sendAcks(tag uint64, ids []uint64) {
	slices.Sort(ids)
	for len(ids) > 0 {
		var base, mask uint64
		base, mask, ids = nextAck(ids)
		g.sendControl(KindEagerAck, tag, base, uint32(mask), uint32(mask>>32))
	}
}

// nextAck encodes the head of sorted ids as one ack: base is the lowest
// id, and mask bit i names id base+1+i. rest is what the ack leaves
// uncovered. Taking the lowest uncovered id as the next base uses the
// fewest acks: every base lies more than 64 past the one before, so no
// ack can name two of them.
func nextAck(ids []uint64) (base, mask uint64, rest []uint64) {
	base = ids[0]
	for rest = ids[1:]; len(rest) > 0 && rest[0]-base <= 64; rest = rest[1:] {
		if d := rest[0] - base; d > 0 {
			mask |= 1 << (d - 1)
		}
	}
	return base, mask, rest
}

// ackIDs appends the ids an ack names to dst in ascending order: base,
// then base+1+i for every set bit i of mask.
func ackIDs(dst []uint64, base, mask uint64) []uint64 {
	dst = append(dst, base)
	for ; mask != 0; mask &= mask - 1 {
		dst = append(dst, base+1+uint64(bits.TrailingZeros64(mask)))
	}
	return dst
}

// eagerAcked completes the pending eager messages an ack names.
func (e *Engine) eagerAcked(g *Gate, hdr Header) {
	var buf [65]uint64 // the base and 64 mask bits
	e.settleEager(g, ackIDs(buf[:0], hdr.MsgID, uint64(hdr.Offset)|uint64(hdr.Total)<<32), nil)
}

// settleEager takes the listed messages out of the pending window
// under one g.mu acquisition, then completes their requests with err
// (nil: acked) outside it, in list order. An id with no entry was
// already acked, failed or timed out — a late or duplicated ack — and
// falls on the floor. Failing (err non-nil) is the wire path's routing
// for an eager frame that could not be sent at all: every rail dead,
// a non-transient send error.
func (e *Engine) settleEager(g *Gate, ids []uint64, err error) {
	var buf [65]*eagerState
	sts := buf[:0]
	g.mu.Lock()
	for _, id := range ids {
		if st := g.eagerPend[id]; st != nil {
			delete(g.eagerPend, id)
			sts = append(sts, st)
		}
	}
	g.mu.Unlock()
	if err == nil {
		e.eagerAcks.Add(uint64(len(sts)))
	}
	for _, st := range sts {
		req := st.req
		e.putEager(st)
		if err == nil && req.traceID != 0 {
			// The ack closes the eager send's final phase (wire-out → ack).
			e.rec.Record(int(req.traceRing), trace.EvAckWaitEnd, req.traceID, 0)
		}
		req.complete(err)
	}
}
