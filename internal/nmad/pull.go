package nmad

// The rendezvous protocol: receiver-driven, one state machine.
//
// A pushed payload moves every byte three times — the sender stages
// it into the provider's registered region, the wire frame carries its
// own copy, and the receiver memcpys each fragment into the posted
// buffer. A pulled one moves zero times on either host: the sender
// registers the *user* payload once per rail domain through the gate's
// registration cache and announces per-rail remote keys in the RTS imm
// extension; the receiver stripes the transfer across its own rails
// (it knows its side's live capabilities best), posts one RMARead per
// chunk directly into req.Data[lo:hi], and sends a single FIN when
// every byte is home so the sender releases its regions and completes.
// Whatever cannot be pulled is asked for as a KindRdvPush request,
// which the sender answers with ordinary KindData frames striped over
// its alive rails: the whole payload, as one chunk, when no rail can
// read (TCP or wrapped-driver gates, no usable offer), and single
// chunks whose rail cannot — key gone stale, rail died mid-transfer.
// MemPair rails read: their RMA face is a fabric loopback RMA pair. The
// KindData reassembly path and the pull completions feed the same byte
// counter and end in the same FIN, so every transfer, pulled, pushed
// or mixed, finishes exactly once.
//
// Lock order: recvRdvState.mu may be taken under Gate.mu, never the
// other way round (the full order is written at Gate.mu).

import (
	"errors"
	"sync"

	"pioman/internal/fabric"
	"pioman/internal/trace"
)

// chunk states of a rendezvous receive. chunkPending is deliberately
// the zero value: a freshly materialized chunk has no read outstanding.
const (
	chunkPending uint8 = iota // materialized, not yet issued
	chunkReading              // RMARead posted, completion pending
	chunkDone                 // bytes landed
	chunkPushed               // requested as a sender push (KindData)
)

// rdvChunk is one receiver-side chunk assignment: payload[lo:hi]
// pulled over rail, or requested as a sender push when no rail can
// read it. Its address is the RMARead context, so completions route
// back without allocation.
type rdvChunk struct {
	st     *recvRdvState
	rail   int
	idx    int // position in st.chunks; the chunk span's aux id
	lo, hi int
	state  uint8
}

// recvRdvState tracks one inbound rendezvous.
type recvRdvState struct {
	req   *Request
	gate  *Gate
	msgID uint64
	tag   uint64

	// retryTimer drives the handshake-timeout sweep; guarded by Gate.mu
	// like the rdvRecv map that holds the state.
	retryTimer

	// absDeadline is the sender's propagated request deadline (the RTS
	// offer's sentinel entry), 0 for none. Immutable after the state is
	// published, so the sweep and issueChunk read it freely.
	absDeadline int64

	mu      sync.Mutex
	chunks  []rdvChunk // fixed length once issued; entries mutate in place
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
// died — every chunk is pulled (re-issuable — this side knows exactly
// where each one rides), none having been requested as a sender push
// whose frames could have been striped onto any rail, sender-side,
// invisibly to us — and, when it can, takes a sweep reference that
// blocks the state from being pool-recycled until endSweep: the last
// chunk's completion may finish the transfer between the sweep's
// decision (under Gate.mu) and its re-issue pass (after), and
// re-issuing against a recycled state would corrupt whatever
// rendezvous took it from the pool.
func (st *recvRdvState) beginSweep() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed {
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

// errRdvRejected reports a rendezvous the peer had no state for (it
// answered with a NACK): the handshake lost its other half.
var errRdvRejected = errors.New("nmad: peer rejected the rendezvous (no matching state)")

// errShortRecvBuffer reports an IrecvInto whose buffer cannot hold the
// matched message.
var errShortRecvBuffer = errors.New("nmad: receive buffer shorter than the matched message")

// startRecvRdv begins reception for a matched RTS: parse the offer (if
// any) and build the chunk table — striped across the rails this side
// can read through, or one push chunk when there are none — then
// publish the state in g.rdvRecv and issue every chunk. The tables are
// complete before anything else can see the state; only the issuing
// must follow publication, because pushed data may arrive as soon as
// it is asked for.
func (e *Engine) startRecvRdv(g *Gate, st *recvRdvState, ext []byte) {
	// Decode the offer into a per-rail key table (index = our rail).
	if cap(st.keys) < len(g.rails) {
		st.keys = make([]fabric.RKey, len(g.rails))
	} else {
		st.keys = st.keys[:len(g.rails)]
		for i := range st.keys {
			st.keys[i] = 0
		}
	}
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
	}
	g.stripeRecvChunks(st, len(st.req.Data))
	n, req, msgID := len(st.chunks), st.req, st.msgID
	g.mu.Lock()
	g.rdvRecv[msgID] = st
	g.mu.Unlock()
	if g.pickEager() < 0 || g.alive.Load() <= 0 {
		// Every rail died around this handshake. The failGate sweep may
		// have run before the entry above was inserted, so clean it up
		// here rather than leaving the receive hanging on a sweep that
		// will never run again.
		g.mu.Lock()
		delete(g.rdvRecv, msgID)
		g.mu.Unlock()
		st.markFailed()
		req.complete(errAllRailsDead)
		return
	}
	if req.traceID != 0 {
		// Transfer phase: match → every byte home (pull reads or pushed
		// data frames alike); finishRecvRdv closes it.
		e.rec.Record(g.id, trace.EvTransferBegin, req.traceID, uint64(req.total))
	}
	for i := 0; i < n; i++ {
		e.issueChunk(g, st, i)
	}
}

// issueChunk posts (or re-posts) chunk i of a rendezvous receive:
// RMARead on the chunk's rail, falling over to another offered rail
// when the post fails, and to a sender push as the last resort.
func (e *Engine) issueChunk(g *Gate, st *recvRdvState, i int) {
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
			lo, hi, tag, msgID := c.lo, c.hi, st.tag, st.msgID
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
			g.askPush(st, tag, msgID, lo, hi)
			return
		}
		c.rail = next
	}
}

// askPush requests payload[lo:hi] from the sender as a push, first
// moving the live receive's deadline to RdvTimeout past the instant the
// range should land, queued behind the pushes already asked of this
// peer: a pushed frame is invisible here until it lands, so without
// that allowance a push merely slower than RdvTimeout would read as a
// lost one and be asked for — and sent — again.
func (g *Gate) askPush(st *recvRdvState, tag, msgID uint64, lo, hi int) {
	e := g.eng
	now, wire := e.clock(), g.wireTime(hi-lo)
	g.mu.Lock()
	g.pushedIn = max(g.pushedIn, now) + wire
	if g.rdvRecv[msgID] == st {
		st.deadline = max(st.deadline, g.pushedIn+e.cfg.RdvTimeout)
	}
	g.mu.Unlock()
	g.sendControl(KindRdvPush, tag, msgID, uint32(lo), uint32(hi-lo))
}

// reissueDeadRailChunks re-posts every chunk of a surviving pull
// transfer that was outstanding on the dead rail. Those reads will
// never complete — the endpoint is closed, its completion queue is
// gone — so their slots are free to re-issue; issueChunk skips the dead
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
		e.issueChunk(g, st, i)
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
	c, ok := ev.Context.(*rdvChunk)
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
// filled: remove the state, complete the request, send the FIN (the
// sender is waiting to release its regions and complete), recycle.
func (e *Engine) finishRecvRdv(st *recvRdvState) {
	g := st.gate
	if g.takeRecvRdv(st.msgID, st) == nil {
		return // a failure sweep got here first
	}
	st.mu.Lock()
	req, tag, msgID := st.req, st.tag, st.msgID
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
	e.rdvFins.Add(1)
	g.sendControl(KindFin, tag, msgID, 0, 0)
	if canRecycle {
		e.putRecvRdv(st)
	}
}

// sendControl ships one request-less control frame (FIN, RdvPush,
// RdvNack). Offset/extra land in the header's Offset/Total
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
