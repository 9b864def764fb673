package nmad

// Receiver-driven rendezvous: the RMA-read pull protocol.
//
// The classic (push) rendezvous moves every byte three times — the
// sender stages the payload into the provider's registered region,
// the wire frame carries its own copy, and the receiver memcpys each
// fragment into the posted buffer. The pull protocol moves it zero
// times on either host: the sender registers the *user* payload once
// per rail domain through the gate's registration cache and announces
// per-rail remote keys in the RTS imm extension; the receiver stripes
// the transfer across its own rails (it knows its side's live
// capabilities best), posts one RMARead per chunk directly into
// req.Data[lo:hi], and sends a single FIN when every byte is home so
// the sender releases its regions and completes. Rails that cannot
// pull — classic frame drivers, rails whose key went stale, rails
// that die mid-transfer — degrade per chunk to a KindRdvPush request,
// which the sender answers with ordinary KindData frames; the KindData
// reassembly path and the pull completions feed the same byte counter,
// so mixed transfers finish exactly once.
//
// Lock order: recvRdvState.mu may be taken under Gate.mu, never the
// other way round (the full order is written at Gate.mu).

import (
	"errors"
	"sync"

	"pioman/internal/fabric"
	"pioman/internal/trace"
)

// chunk states of a pull-mode transfer. chunkPending is deliberately
// the zero value: a freshly materialized chunk has no read outstanding.
const (
	chunkPending uint8 = iota // materialized, not yet issued
	chunkReading              // RMARead posted, completion pending
	chunkDone                 // bytes landed
	chunkPushed               // requested as a sender push (KindData)
)

// pullChunk is one receiver-side chunk assignment: payload[lo:hi]
// pulled over rail. Its address is the RMARead context, so completions
// route back without allocation.
type pullChunk struct {
	st     *recvRdvState
	rail   int
	idx    int // position in st.chunks; the chunk span's aux id
	lo, hi int
	state  uint8
}

// recvRdvState tracks one inbound rendezvous, push or pull.
type recvRdvState struct {
	req   *Request
	gate  *Gate
	msgID uint64
	tag   uint64
	pull  bool

	// retryTimer drives the handshake-timeout sweep; guarded by Gate.mu
	// like the rdvRecv map that holds the state.
	retryTimer

	// absDeadline is the sender's propagated request deadline (the RTS
	// offer's sentinel entry), 0 for none. Immutable after the state is
	// published, so the sweep and issuePull read it freely.
	absDeadline int64

	mu      sync.Mutex
	chunks  []pullChunk // fixed length once issued; entries mutate in place
	keys    []fabric.RKey
	covered []span // merged byte ranges landed via KindData (dup dedup)
	reading int    // chunks with an outstanding RMARead
	sweeps  int    // rail-death sweeps holding a reference (blocks recycling)
	failed  bool   // state abandoned; late completions are ignored
}

// markFailed flags the state so late RMA completions fall on the
// floor. Safe to call under Gate.mu (lock order: state after gate).
func (st *recvRdvState) markFailed() {
	st.mu.Lock()
	st.failed = true
	st.mu.Unlock()
}

// beginSweep reports whether the transfer can continue after a rail
// died — it is pull-mode (push-mode state is failed conservatively),
// every chunk is pulled (re-issuable — this side knows exactly where
// each one rides), and none has degraded to a sender push whose
// frames could have been striped onto any rail, sender-side,
// invisibly to us — and, when it can, takes a sweep reference that
// blocks the state from being pool-recycled until endSweep: the last
// chunk's completion may finish the transfer between the sweep's
// decision (under Gate.mu) and its re-issue pass (after), and
// re-issuing against a recycled state would corrupt whatever
// rendezvous took it from the pool. The pull flag is read under st.mu
// because startPull sets it after the state is already visible in
// g.rdvRecv.
func (st *recvRdvState) beginSweep() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed || !st.pull {
		return false
	}
	for i := range st.chunks {
		if st.chunks[i].state == chunkPushed {
			return false
		}
	}
	st.sweeps++
	return true
}

// endSweep returns a beginSweep reference.
func (st *recvRdvState) endSweep() {
	st.mu.Lock()
	st.sweeps--
	st.mu.Unlock()
}

// getRecvRdv takes a receive-rendezvous state from the pool.
func (e *Engine) getRecvRdv() *recvRdvState {
	st, _ := e.recvRdvPool.Get().(*recvRdvState)
	if st == nil {
		st = &recvRdvState{}
	}
	return st
}

// putRecvRdv recycles a state. Only the clean completion path recycles
// (all chunks settled, no outstanding reads); failure paths leave the
// state to the garbage collector because a closed rail's completion
// queue may still hold contexts pointing at it.
func (e *Engine) putRecvRdv(st *recvRdvState) {
	st.req = nil
	st.gate = nil
	st.msgID = 0
	st.tag = 0
	st.pull = false
	st.retryTimer = retryTimer{}
	st.absDeadline = 0
	st.chunks = st.chunks[:0]
	st.keys = st.keys[:0]
	st.covered = st.covered[:0]
	st.reading = 0
	st.sweeps = 0
	st.failed = false
	e.recvRdvPool.Put(st)
}

// errPullRejected reports a rendezvous the peer had no state for (it
// answered with a NACK): the handshake lost its other half.
var errPullRejected = errors.New("nmad: peer rejected the rendezvous (no matching state)")

// errShortRecvBuffer reports an IrecvInto whose buffer cannot hold the
// matched message.
var errShortRecvBuffer = errors.New("nmad: receive buffer shorter than the matched message")

// startPull begins pull-mode reception for a matched RTS: parse the
// offer, stripe across pull-capable rails, post the reads. Returns
// false when nothing was pullable (the caller falls back to CTS).
// Called after the state is registered in g.rdvRecv.
func (e *Engine) startPull(g *Gate, st *recvRdvState, ext []byte) bool {
	// Decode the offer into a per-rail key table (index = our rail).
	if cap(st.keys) < len(g.rails) {
		st.keys = make([]fabric.RKey, len(g.rails))
	} else {
		st.keys = st.keys[:len(g.rails)]
		for i := range st.keys {
			st.keys[i] = 0
		}
	}
	usable := false
	for i := 0; ; i++ {
		railIdx, key, ok := offerEntry(ext, i)
		if !ok {
			break
		}
		if int(railIdx) >= len(g.rails) || key == 0 {
			continue
		}
		r := g.rails[railIdx]
		if r.rma == nil || r.dead.Load() {
			continue
		}
		st.keys[railIdx] = fabric.RKey(key)
		usable = true
	}
	if !usable {
		return false
	}
	if !g.stripePullChunks(st, len(st.req.Data)) {
		return false
	}
	st.mu.Lock()
	st.pull = true // st is already visible in g.rdvRecv; racing sweeps read under st.mu
	n := len(st.chunks)
	st.mu.Unlock()
	for i := 0; i < n; i++ {
		e.issuePull(g, st, i)
	}
	return true
}

// issuePull posts (or re-posts) chunk i of a pull transfer: RMARead on
// the chunk's rail, falling over to another offered rail when the post
// fails, and to a sender push as the last resort.
func (e *Engine) issuePull(g *Gate, st *recvRdvState, i int) {
	// Read the clock before taking st.mu: Clock may reach into provider
	// state, and holding the lock across it is needless coupling.
	var now int64
	if st.absDeadline != 0 {
		now = e.clock()
	}
	st.mu.Lock()
	c := &st.chunks[i]
	if st.failed || c.state == chunkDone {
		st.mu.Unlock()
		return
	}
	if d := st.absDeadline; d != 0 && now >= d {
		// The sender's deadline passed: posting this read would move
		// bytes its submitter has already abandoned. Fail the receive
		// instead (lock order: the cleanup takes Gate.mu, so release
		// st.mu first).
		st.mu.Unlock()
		e.expireRecvDeadline(g, st)
		return
	}
	// Capture the chunk span identity under st.mu — st.req is off
	// limits once the lock drops — and record only after unlocking.
	var sid uint64
	if e.rec != nil && st.req.traceID != 0 {
		sid = g.spanID(trace.DirRecv, uint8(i), st.msgID)
	}
	chunkLen := c.hi - c.lo
	wasReading := c.state == chunkReading
	for {
		r := g.rails[c.rail]
		key := st.keys[c.rail]
		if key != 0 && r.rma != nil && !r.dead.Load() {
			err := r.rma.RMARead(key, c.lo, st.req.Data[c.lo:c.hi], c)
			if err == nil {
				if !wasReading {
					st.reading++
				}
				c.state = chunkReading
				st.mu.Unlock()
				if sid != 0 {
					// Re-issues record another begin; the analyzer folds
					// duplicates to first-begin/last-end.
					e.rec.Record(g.id, trace.EvChunkBegin, sid, uint64(chunkLen))
				}
				e.rdvPulls.Add(1)
				return
			}
			if errors.Is(err, fabric.ErrNoRegion) {
				// The sender's registration is gone (invalidated or
				// released); the key is dead on every rail that shares
				// its domain, but retrying others is harmless and the
				// push fallback catches the rest.
				st.keys[c.rail] = 0
			} else {
				// The rail cannot serve reads anymore; it is dead for
				// our purposes (the send path will discover its own
				// half independently). When it was the gate's last
				// rail, fail the gate exactly as a poll error on the
				// last rail would — the push fallback below would
				// sendControl into a dead gate and hang this receive
				// forever. Lock order: failGate takes Gate.mu and
				// this state's mutex, so release st.mu first.
				if g.railDown(c.rail) == 0 {
					st.mu.Unlock()
					e.failGate(g, err)
					return
				}
			}
		}
		// Pick another offered, pull-capable, alive rail.
		next := -1
		for j := range g.rails {
			if j != c.rail && st.keys[j] != 0 && g.rails[j].rma != nil && !g.rails[j].dead.Load() {
				next = j
				break
			}
		}
		if next < 0 {
			// Nothing left to pull through: ask the sender to push
			// this range.
			if wasReading {
				st.reading--
			}
			c.state = chunkPushed
			lo, hi := c.lo, c.hi
			st.mu.Unlock()
			if sid != 0 {
				// Degraded to a sender push: close the chunk span
				// immediately (B=2 marks the degradation) — the pushed
				// bytes are tracked by the transfer span's byte counter,
				// not per-chunk, so an open span here would never end.
				e.rec.Record(g.id, trace.EvChunkBegin, sid, uint64(chunkLen))
				e.rec.Record(g.id, trace.EvChunkEnd, sid, 2)
			}
			e.rdvPushRanges.Add(1)
			g.sendControl(KindRdvPush, st.tag, st.msgID, uint32(lo), uint32(hi-lo))
			return
		}
		c.rail = next
	}
}

// reissueDeadRailChunks re-posts every chunk of a surviving pull
// transfer that was outstanding on the dead rail. Those reads will
// never complete — the endpoint is closed, its completion queue is
// gone — so their slots are free to re-issue; issuePull skips the dead
// rail and keeps the outstanding-read accounting straight. The caller
// holds a beginSweep reference, released here.
func (e *Engine) reissueDeadRailChunks(g *Gate, st *recvRdvState, idx int) {
	defer st.endSweep()
	st.mu.Lock()
	st.keys[idx] = 0
	var stale []int
	for i := range st.chunks {
		c := &st.chunks[i]
		if c.state == chunkReading && c.rail == idx {
			stale = append(stale, i)
		}
	}
	st.mu.Unlock()
	for _, i := range stale {
		e.issuePull(g, st, i)
	}
}

// expireRecvDeadline fails a rendezvous receive whose sender-propagated
// deadline passed before every read could be posted: remove the state,
// NACK the sender (its half fails promptly instead of waiting out its
// own sweep), complete the receive with ErrDeadlineExpired. Idempotent
// against racing sweeps through the same remove-first pattern as
// finishRecvRdv.
func (e *Engine) expireRecvDeadline(g *Gate, st *recvRdvState) {
	if g.takeRecvRdv(st.msgID, st) == nil {
		return // completed or failed by another path first
	}
	st.markFailed()
	e.deadlineExpired.Add(1)
	g.sendControl(KindRdvNack, st.tag, st.msgID, nackSend, 0)
	st.req.complete(ErrDeadlineExpired)
}

// pullDone handles one EventRMADone: account the landed chunk and
// finish the transfer when it was the last byte.
func (e *Engine) pullDone(g *Gate, railIdx int, ev fabric.Event) {
	c, ok := ev.Context.(*pullChunk)
	if !ok || c == nil {
		return
	}
	st := c.st
	st.mu.Lock()
	if st.failed || c.state != chunkReading {
		st.mu.Unlock()
		return
	}
	c.state = chunkDone
	st.reading--
	n := c.hi - c.lo
	// Capture the request under the lock: once the last chunk's
	// handler observes the full byte count it finishes and recycles
	// the state, so no field of st may be touched after our Add unless
	// we are that handler.
	req := st.req
	var sid uint64
	if e.rec != nil && req.traceID != 0 {
		sid = g.spanID(trace.DirRecv, uint8(c.idx), st.msgID)
	}
	st.mu.Unlock()
	if sid != 0 {
		e.rec.Record(g.id, trace.EvChunkEnd, sid, 0)
	}
	g.rails[railIdx].pullBytes.Add(uint64(n))
	e.rdvPullBytes.Add(uint64(n))
	if req.got.Add(uint32(n)) >= req.total {
		e.finishRecvRdv(st)
	}
}

// finishRecvRdv completes a rendezvous receive whose byte count just
// filled: remove the state, send the FIN (pull mode — the sender is
// waiting to release its regions), complete the request, recycle.
func (e *Engine) finishRecvRdv(st *recvRdvState) {
	g := st.gate
	if g.takeRecvRdv(st.msgID, st) == nil {
		return // a failure sweep got here first
	}
	st.mu.Lock()
	req, pull, tag, msgID := st.req, st.pull, st.tag, st.msgID
	// A re-issued chunk's original read may in principle still be
	// pending on a closed rail, and a rail-death sweep may hold a
	// reference it has yet to re-issue against; either way leave the
	// state to the garbage collector instead of recycling under a
	// live reference.
	canRecycle := st.reading == 0 && st.sweeps == 0
	st.mu.Unlock()
	e.msgsRecv.Add(1)
	if req.traceID != 0 {
		// Every byte is home: the receiver's transfer phase ends.
		e.rec.Record(g.id, trace.EvTransferEnd, req.traceID, 0)
	}
	req.complete(nil)
	if pull {
		e.rdvFins.Add(1)
		g.sendControl(KindFin, tag, msgID, 0, 0)
	}
	if canRecycle {
		e.putRecvRdv(st)
	}
}

// sendControl ships one request-less control frame (CTS, FIN,
// RdvPush, RdvNack). Offset/extra land in the header's Offset/Total
// fields, whose meaning is per kind.
func (g *Gate) sendControl(kind Kind, tag uint64, msgID uint64, offset, extra uint32) {
	rail := g.pickEager()
	if rail < 0 {
		return // gate is dead; the sweeps handle the fallout
	}
	p := g.packet()
	p.Hdr = Header{Kind: kind, Tag: tag, MsgID: msgID, Offset: offset, Total: extra}
	p.rail = rail
	g.sendPacket(p)
}
