package nmad

import (
	"encoding/binary"
	"fmt"

	"pioman/internal/core"
	"pioman/internal/trace"
)

// Isend starts a non-blocking send of data to the gate's peer under the
// given tag. Small payloads go eagerly (possibly aggregated); large ones
// announce a rendezvous with an RTS, and the receiver reads the payload
// straight out of data, striped across the gate's rails. The
// returned request completes once the peer holds every byte: its ack
// (eager; see eager.go) or its FIN (rendezvous).
func (g *Gate) Isend(tag uint64, data []byte) *Request {
	return g.IsendDeadline(tag, data, 0)
}

// IsendDeadline is Isend with an absolute deadline on the engine clock
// (Config.Clock); 0 means none. The deadline is checked at admission,
// re-checked by the deadline sweep while the transfer is in flight (a
// doomed rendezvous or eager message is failed with ErrDeadlineExpired
// instead of retransmitted), and propagated to the receiver inside the
// RTS pull offer so it stops posting RMA reads for expired work. The
// in-flight checks ride the handshake-timeout sweep.
func (g *Gate) IsendDeadline(tag uint64, data []byte, deadline int64) *Request {
	e := g.eng
	req := newRequest(e)
	req.deadline = deadline
	if e.stopped.Load() {
		req.complete(ErrClosed)
		return req
	}
	if e.admit != nil && !e.admitSubmit(g, req, tag, data, false) {
		return req
	}
	g.injectSend(req, tag, data)
	return req
}

// injectSend runs the admitted send: the submission path below the
// admission plane. Called from IsendDeadline directly (admission off or
// credits granted) or from admitDrain when a parked submission's
// credits free up.
func (g *Gate) injectSend(req *Request, tag uint64, data []byte) {
	e := g.eng
	e.msgsSent.Add(1)
	msgID := g.nextMsgID.Add(1)

	if len(data) <= e.cfg.EagerThreshold {
		e.eagerSent.Add(1)
		if rec := e.rec; rec != nil {
			// Open the whole-message span and the injection phase:
			// submit → frame on the wire (completeAll's wire-out hook
			// closes it and opens the ack wait).
			sid := g.spanID(trace.DirSend, 0, msgID)
			req.traceID, req.traceRing = sid, int32(g.id)
			rec.Record(g.id, trace.EvSendBegin, sid, uint64(len(data)))
			rec.Record(g.id, trace.EvInjectBegin, sid, uint64(len(data)))
		}
		// Ack-tracked: the pending entry owns the request's completion
		// (peer ack, sweep timeout, or wire failure), not the frame's
		// wire-out.
		if !e.trackEager(g, msgID, tag, data, req) {
			req.complete(ErrClosed)
			return
		}
		hdr := Header{Kind: KindEager, Tag: tag, MsgID: msgID, Total: uint32(len(data))}
		if e.cfg.Strategy == StrategyAggreg {
			g.aggPush(hdr, data)
			return
		}
		rail := g.pickEager()
		if rail < 0 {
			e.failEager(g, msgID, errAllRailsDead)
			return
		}
		p := g.packet()
		p.Hdr = hdr
		p.Payload = data
		p.rail = rail
		p.pend = append(p.pend, msgID)
		g.sendPacket(p)
		return
	}

	// Rendezvous: announce with an RTS; the receiver drives everything
	// after it (handled by polling tasks) and answers with a FIN once
	// every byte is home. The user payload is registered once per rail
	// domain through the gate's registration cache — no staging copy;
	// repeated sends of one buffer skip re-registration entirely — and
	// the RTS imm extension offers the remote keys, so the receiver
	// reads the bytes straight out of the user buffer.
	rail := g.pickEager()
	if rail < 0 {
		req.complete(errAllRailsDead)
		return
	}
	st := e.getSendRdv()
	st.req = req
	// A deadline rides the offer as a sentinel entry, costing one real
	// offer slot.
	offerLimit := maxOfferRails
	if req.deadline != 0 {
		offerLimit--
	}
	offered := 0
	for i, r := range g.rails {
		if r.cache == nil || r.dead.Load() {
			continue
		}
		reg, err := r.cache.Get(data)
		if err != nil {
			continue
		}
		st.regs = append(st.regs, reg)
		st.offer = appendOfferEntry(st.offer, uint32(i), uint64(reg.Key()))
		if offered++; offered == offerLimit {
			break
		}
	}
	if offered == 0 {
		e.putSendRdv(st)
		req.complete(errNoReadRail)
		return
	}
	if req.deadline != 0 {
		// Propagate the deadline to the receiver: decoders that predate
		// it skip the sentinel as an out-of-range rail index.
		st.offer = appendOfferEntry(st.offer, deadlineRailSentinel, uint64(req.deadline))
	}
	e.rdvStarted.Add(1) // counted only once a handshake actually leaves
	if rec := e.rec; rec != nil {
		// Open the whole-message span and the handshake phase: RTS out
		// → FIN back (the handshake span covers the whole transfer).
		sid := g.spanID(trace.DirSend, 0, msgID)
		req.traceID, req.traceRing = sid, int32(g.id)
		rec.Record(g.id, trace.EvSendBegin, sid, uint64(len(data)))
		rec.Record(g.id, trace.EvHandshakeBegin, sid, uint64(len(data)))
	}
	st.tag = tag
	st.total = uint32(len(data))
	st.deadline = e.tasks.Now() + e.cfg.RdvTimeout
	g.mu.Lock()
	if e.stopped.Load() { // Close took the gate's requests: see takeInflight
		g.mu.Unlock()
		st.releaseRegs()
		req.complete(ErrClosed)
		return
	}
	g.sendRdv[msgID] = st
	g.mu.Unlock()
	p := g.packet()
	p.Hdr = Header{Kind: KindRTS, Tag: tag, MsgID: msgID, Total: uint32(len(data))}
	p.ext = st.offer
	p.rail = rail
	g.sendPacket(p)
}

// Send is the blocking convenience wrapper around Isend.
func (g *Gate) Send(tag uint64, data []byte) error {
	return g.Isend(tag, data).Wait()
}

// Irecv posts a non-blocking receive for the next message on (gate,
// tag). On completion the payload is in Request.Data.
func (g *Gate) Irecv(tag uint64) *Request {
	return g.irecv(tag, nil)
}

// IrecvInto posts a non-blocking receive that lands in the caller's
// buffer: rendezvous payloads are read directly into buf (true
// zero-copy) and eager payloads are copied into it. The matched
// message must fit in buf or the request fails with a short-buffer
// error. On completion Request.Data aliases buf's filled prefix.
func (g *Gate) IrecvInto(tag uint64, buf []byte) *Request {
	return g.irecv(tag, buf)
}

func (g *Gate) irecv(tag uint64, buf []byte) *Request {
	e := g.eng
	req := newRequest(e)
	req.gate = g
	req.tag = tag
	req.userBuf = buf
	if rec := e.rec; rec != nil {
		// The receiver's span identity (the sender's msgID) is unknown
		// until a frame matches; remember the post stamp so the
		// whole-message and match-wait spans can open retroactively.
		req.postTS = rec.Now()
	}
	if e.stopped.Load() {
		req.complete(ErrClosed)
		return req
	}
	// Only sized receives (IrecvInto) are admitted: an open Irecv
	// carries no byte commitment to charge, and admitting it would let
	// an idle receiver starve its own inbound path.
	if e.admit != nil && buf != nil && !e.admitSubmit(g, req, tag, nil, true) {
		return req
	}
	g.injectRecv(req)
	return req
}

// injectRecv posts the admitted receive: the submission path below the
// admission plane. The tag and buffer ride the request (req.tag,
// req.userBuf), so admitDrain can inject a parked receive verbatim.
func (g *Gate) injectRecv(req *Request) {
	e := g.eng
	g.mu.Lock()
	if e.stopped.Load() { // Close took the gate's requests: see takeInflight
		g.mu.Unlock()
		req.complete(ErrClosed)
		return
	}
	// A matching message may already have arrived unexpectedly.
	if q := g.unexpected[req.tag]; q != nil {
		if u, ok := q.pop(); ok {
			dropFIFOIfEmpty(g.unexpected, &e.inbFIFOPool, req.tag, q)
			g.mu.Unlock()
			e.deliver(req, u)
			return
		}
	}
	q := g.recvQ[req.tag]
	if q == nil {
		q = getFIFO[*Request](&e.reqFIFOPool)
		g.recvQ[req.tag] = q
	}
	q.push(req)
	g.mu.Unlock()
}

// Recv is the blocking convenience wrapper around Irecv.
func (g *Gate) Recv(tag uint64) ([]byte, error) {
	req := g.Irecv(tag)
	if err := req.Wait(); err != nil {
		return nil, err
	}
	return req.Data, nil
}

// Unexpected reports whether a message with the given tag has already
// arrived on this gate without a matching receive — an MPI_Iprobe.
func (g *Gate) Unexpected(tag uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	q := g.unexpected[tag]
	return q != nil && !q.empty()
}

// traceMatch records the receiver-side span openings for a request
// that just matched its message: the whole-message and match-wait
// spans open retroactively at the Irecv post stamp (RecordAt), and
// the match phase closes now. No-op without a recorder.
func (e *Engine) traceMatch(g *Gate, req *Request, msgID uint64, total uint32) {
	rec := e.rec
	if rec == nil {
		return
	}
	sid := g.spanID(trace.DirRecv, 0, msgID)
	req.traceID, req.traceRing = sid, int32(g.id)
	post := req.postTS
	if post == 0 {
		post = rec.Now()
	}
	rec.RecordAt(g.id, trace.EvRecvBegin, sid, uint64(total), post)
	rec.RecordAt(g.id, trace.EvMatchBegin, sid, 0, post)
	rec.Record(g.id, trace.EvMatchEnd, sid, 0)
}

// deliver routes a matched inbound frame to its receive request (whose
// gate it arrived on). Called without the gate's mu held.
func (e *Engine) deliver(req *Request, u inbound) {
	g := req.gate
	switch u.hdr.Kind {
	case KindEager:
		e.traceMatch(g, req, u.hdr.MsgID, u.hdr.Total)
		e.msgsRecv.Add(1)
		if req.userBuf != nil {
			if len(u.payload) > len(req.userBuf) {
				req.complete(errShortRecvBuffer)
				return
			}
			n := copy(req.userBuf, u.payload)
			e.recvCopied.Add(uint64(n))
			req.Data = req.userBuf[:n]
		} else {
			req.Data = u.payload
		}
		req.complete(nil)
	case KindRTS:
		// Open the receiver spans before the short-buffer check so the
		// failure path below still closes a recorded whole-message span.
		e.traceMatch(g, req, u.hdr.MsgID, u.hdr.Total)
		req.total = u.hdr.Total
		if req.userBuf != nil {
			if int(u.hdr.Total) > len(req.userBuf) {
				// The sender is waiting on us; tell it the handshake is
				// off before failing locally.
				g.sendControl(KindRdvNack, u.hdr.Tag, u.hdr.MsgID, nackSend, 0)
				req.complete(errShortRecvBuffer)
				return
			}
			req.Data = req.userBuf[:u.hdr.Total]
		} else {
			req.Data = make([]byte, u.hdr.Total)
		}
		absDeadline := extDeadline(u.ext)
		if absDeadline != 0 && e.tasks.Now() >= absDeadline {
			// The sender's deadline already passed: it has given up on
			// this transfer (or its sweep is about to fail it). Refuse
			// the handshake instead of pulling bytes nobody wants.
			e.deadlineExpired.Add(1)
			g.sendControl(KindRdvNack, u.hdr.Tag, u.hdr.MsgID, nackSend, 0)
			req.complete(ErrDeadlineExpired)
			return
		}
		st := e.getRecvRdv()
		st.req = req
		st.gate = g
		st.msgID = u.hdr.MsgID
		st.tag = u.hdr.Tag
		st.deadline = e.tasks.Now() + e.cfg.RdvTimeout
		st.absDeadline = absDeadline
		e.startRecvRdv(g, st, u.ext)
	default:
		req.complete(fmt.Errorf("nmad: unexpected frame kind %v matched a receive", u.hdr.Kind))
	}
}

// handleFrame dispatches one inbound frame; it runs inside a polling
// task on whatever core scheduled it.
func (e *Engine) handleFrame(g *Gate, f Frame) {
	if r := e.rec; r != nil {
		// Control-plane instants carry the span id of the message they
		// belong to: RTS arrives at the receiver (its span is DirRecv),
		// FIN comes back to the sender (DirSend).
		switch f.Hdr.Kind {
		case KindRTS:
			r.Record(g.id, trace.EvRdvRTS, g.spanID(trace.DirRecv, 0, f.Hdr.MsgID), uint64(f.Hdr.Total))
		case KindFin:
			r.Record(g.id, trace.EvRdvFin, g.spanID(trace.DirSend, 0, f.Hdr.MsgID), 0)
		}
	}
	switch f.Hdr.Kind {
	case KindEager:
		e.recvEager(g, f.Hdr, f.Payload)

	case KindAggr:
		for _, sub := range unpackAggr(f.Payload) {
			e.recvEager(g, sub.Hdr, sub.Payload)
		}

	case KindEagerAck:
		e.eagerAcked(g, f.Hdr)

	case KindRTS:
		// Retransmitted RTS frames must be idempotent: never re-match a
		// live or settled handshake against a fresh receive.
		g.mu.Lock()
		live := g.rdvRecv[f.Hdr.MsgID] != nil
		settled := g.settledRecv.has(f.Hdr.MsgID)
		g.mu.Unlock()
		if live {
			// Nothing to answer: the reads are ours to drive, and the
			// timeout sweep re-drives them.
			return
		}
		if settled {
			// The rendezvous already finished here; the sender is
			// retrying because our FIN was lost. Re-send it.
			g.sendControl(KindFin, f.Hdr.Tag, f.Hdr.MsgID, 0, 0)
			return
		}
		g.matchOrStash(inbound{hdr: f.Hdr, payload: nil, ext: f.Ext})

	case KindFin:
		// Rendezvous complete: the receiver has every byte, read
		// straight out of our user buffer. Release the interned
		// registrations and finish the send.
		st, _ := g.takeSendRdv(f.Hdr.MsgID)
		if st == nil {
			return
		}
		st.releaseRegs()
		req := st.req
		e.putSendRdv(st)
		if req.traceID != 0 {
			// The handshake phase spans RTS → FIN: the remote reads
			// happen entirely inside it.
			e.rec.Record(g.id, trace.EvHandshakeEnd, req.traceID, 0)
		}
		req.complete(nil)

	case KindRdvNack:
		// The peer lost (or never had) its half of a rendezvous this
		// engine is party to: fail the local half the NACK names — the
		// send waiting for a FIN, or the receive waiting on its reads.
		// The two must not be guessed between: a gate's send and
		// receive directions share the msgID keyspace, so the wrong
		// guess would kill an unrelated healthy transfer.
		if f.Hdr.Offset == nackSend {
			g.failSendRdv(f.Hdr.MsgID, errRdvRejected)
		} else {
			g.failRecvRdv(f.Hdr.MsgID, errRdvRejected)
		}
	}
}

// matchOrStash matches an inbound frame against the gate's posted
// receives, or stores it in the unexpected queue — O(1) either way,
// keyed by tag with FIFO order per tag.
func (g *Gate) matchOrStash(u inbound) {
	e := g.eng
	tag := u.hdr.Tag
	g.mu.Lock()
	if q := g.recvQ[tag]; q != nil {
		if req, ok := q.pop(); ok {
			dropFIFOIfEmpty(g.recvQ, &e.reqFIFOPool, tag, q)
			g.mu.Unlock()
			e.deliver(req, u)
			return
		}
	}
	if u.hdr.Kind == KindRTS {
		// A retransmitted RTS whose original is still waiting here must
		// not stash twice: the duplicate would match a later receive
		// and strand it waiting on a rendezvous the sender only has one
		// of.
		if q := g.unexpected[tag]; q != nil {
			for i := q.head; i < len(q.items); i++ {
				if q.items[i].hdr.Kind == KindRTS && q.items[i].hdr.MsgID == u.hdr.MsgID {
					g.mu.Unlock()
					return
				}
			}
		}
		if len(u.ext) > 0 {
			// The pull offer rides provider scratch storage that is
			// only valid for this poll; stashing means keeping it.
			u.ext = append([]byte(nil), u.ext...)
		}
	}
	q := g.unexpected[tag]
	if q == nil {
		q = getFIFO[inbound](&e.inbFIFOPool)
		g.unexpected[tag] = q
	}
	q.push(u)
	g.mu.Unlock()
}

// ---- Aggregation strategy ----

// aggPush queues a small message for aggregation and ensures a flush
// task is pending.
func (g *Gate) aggPush(hdr Header, payload []byte) {
	g.aggMu.Lock()
	g.aggPending = append(g.aggPending, pendingSend{hdr: hdr, payload: payload})
	start := !g.aggFlushing
	if start {
		g.aggFlushing = true
	}
	g.aggMu.Unlock()
	if start {
		flush := &core.Task{Fn: func(any) bool {
			g.aggFlush()
			return true
		}}
		g.eng.tasks.MustSubmit(flush)
	}
}

// aggFlush drains the pending queue, packs it into aggregate frames
// bounded by MaxAggr (singletons stay plain), and submits every
// frame's packet task in one core.SubmitAll batch: the burst of frames
// a flush produces pays one queue-lock chain append instead of one per
// frame. Every queued message is already in the ack window, which owns
// its request from here on.
func (g *Gate) aggFlush() {
	e := g.eng
	for {
		g.aggMu.Lock()
		pending := g.aggPending
		if len(pending) == 0 {
			g.aggFlushing = false
			g.aggMu.Unlock()
			return
		}
		g.aggPending = nil
		g.aggMu.Unlock()

		rail := g.pickEager()
		if rail < 0 {
			for _, m := range pending {
				e.failEager(g, m.hdr.MsgID, errAllRailsDead)
			}
			continue
		}
		var tasks []*core.Task
		for len(pending) > 0 {
			// Take a batch bounded by MaxAggr payload bytes.
			n, total := 1, len(pending[0].payload)
			for n < len(pending) && total+len(pending[n].payload) <= e.cfg.MaxAggr {
				total += len(pending[n].payload)
				n++
			}
			batch := pending[:n]
			pending = pending[n:]

			p := g.packet()
			p.rail = rail
			if len(batch) == 1 {
				p.Hdr = batch[0].hdr
				p.Payload = batch[0].payload
			} else {
				payload := packAggr(batch, g.getAggBuf())
				p.Hdr = Header{Kind: KindAggr, Total: uint32(len(payload))}
				p.Payload = payload
				p.scratch = payload // returned to the gate pool on recycle
			}
			// Completion rides the per-message acks, not wire-out.
			for _, m := range batch {
				p.pend = append(p.pend, m.hdr.MsgID)
			}
			tasks = append(tasks, g.preparePacket(p))
		}
		e.tasks.MustSubmitAll(tasks...)
	}
}

// packAggr serializes a batch of eager messages into one frame payload
// — repeated [tag u64 | msgID u64 | size u32 | bytes] — appended onto
// buf's empty prefix. Callers pass a pooled buffer (Gate.getAggBuf);
// nil works and simply allocates.
func packAggr(batch []pendingSend, buf []byte) []byte {
	out := buf[:0]
	var scratch [20]byte
	for _, m := range batch {
		binary.LittleEndian.PutUint64(scratch[0:], m.hdr.Tag)
		binary.LittleEndian.PutUint64(scratch[8:], m.hdr.MsgID)
		binary.LittleEndian.PutUint32(scratch[16:], uint32(len(m.payload)))
		out = append(out, scratch[:]...)
		out = append(out, m.payload...)
	}
	return out
}

// getAggBuf takes an aggregate payload buffer from the gate's pool.
// Buffers come back through recyclePacket once their frame is on the
// wire, so a steady aggregation flow reuses a handful of buffers
// instead of allocating one per frame.
func (g *Gate) getAggBuf() []byte {
	g.aggMu.Lock()
	defer g.aggMu.Unlock()
	if n := len(g.aggBufs); n > 0 {
		buf := g.aggBufs[n-1]
		g.aggBufs[n-1] = nil
		g.aggBufs = g.aggBufs[:n-1]
		return buf
	}
	return make([]byte, 0, g.eng.cfg.MaxAggr+maxAggrSlack)
}

// putAggBuf returns an aggregate payload buffer to the gate's pool.
func (g *Gate) putAggBuf(buf []byte) {
	g.aggMu.Lock()
	g.aggBufs = append(g.aggBufs, buf[:0])
	g.aggMu.Unlock()
}

// maxAggrSlack covers the per-message sub-headers of a packed frame,
// so a pooled buffer sized for MaxAggr payload bytes rarely regrows.
const maxAggrSlack = 64 * 20

// unpackAggr splits an aggregate frame back into eager sub-frames.
func unpackAggr(payload []byte) []Frame {
	var out []Frame
	for len(payload) >= 20 {
		tag := binary.LittleEndian.Uint64(payload[0:])
		msgID := binary.LittleEndian.Uint64(payload[8:])
		size := binary.LittleEndian.Uint32(payload[16:])
		payload = payload[20:]
		if int(size) > len(payload) {
			break // truncated frame; drop the rest
		}
		out = append(out, Frame{
			Hdr:     Header{Kind: KindEager, Tag: tag, MsgID: msgID, Total: size},
			Payload: payload[:size:size],
		})
		payload = payload[size:]
	}
	return out
}
