package nmad

// The rendezvous protocol: receiver-driven, one state machine, one
// transfer path.
//
// The sender registers the *user* payload once per rail domain through
// the gate's registration cache and announces per-rail remote keys in
// the RTS imm extension. The receiver stripes the transfer across its
// own rails (it knows its side's live capabilities best), posts one
// RMARead per chunk directly into req.Data[lo:hi], and sends a single
// FIN when every byte is home so the sender releases its regions and
// completes. No payload byte is copied on either host. Every rail a
// gate is built from reads: SimFabric RMA rails natively, MemPair rails
// through a fabric loopback RMA pair, TCP rails through the rail's own
// read-request frames, served from the registered bytes by the peer
// rail's goroutines. A chunk whose read cannot be posted moves to
// another offered rail (key gone stale, rail died mid-transfer); when
// no rail is left to read it through, the receive fails visibly and
// NACKs the sender.
//
// Lock order: recvRdvState.mu may be taken under Gate.mu, never the
// other way round (the full order is written at Gate.mu).

import (
	"errors"
	"slices"
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
)

// rdvChunk is one receiver-side chunk assignment: payload[lo:hi] read
// over rail. Its address is the RMARead context, so completions route
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
	reading int  // chunks with an outstanding RMARead
	sweeps  int  // sweeps holding a reference (blocks recycling)
	failed  bool // state abandoned; late completions are ignored
}

// markFailed flags the state so late RMA completions fall on the
// floor, and drops its reads still posted on a TCP rail, so nothing
// lands in the buffer once the receive fails. Safe to call under
// Gate.mu (lock order: state after gate).
func (st *recvRdvState) markFailed() {
	st.mu.Lock()
	st.failed = true
	for i := range st.chunks {
		c := &st.chunks[i]
		if tcp := st.gate.rails[c.rail].tcp; tcp != nil && c.state == chunkReading {
			tcp.drop(c)
		}
	}
	st.mu.Unlock()
}

// readsInFlight reports whether every unsettled chunk of st is reading
// on a live TCP rail, which cannot lose the read: the receive is slow,
// not stalled. Caller holds g.mu.
func (g *Gate) readsInFlight(st *recvRdvState) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.chunks {
		c := &st.chunks[i]
		r := g.rails[c.rail]
		if c.state == chunkDone {
			continue
		}
		if r.tcp == nil || c.state != chunkReading || r.dead.Load() || !r.tcp.inFlight(c) {
			return false
		}
	}
	return true
}

// offerServing reports whether a TCP rail is answering a peer read of
// a region the offer names: the receiver is reading the payload.
// Caller holds g.mu.
func (g *Gate) offerServing(offer []byte) bool {
	for i := 0; ; i++ {
		idx, key, ok := offerEntry(offer, i)
		if !ok {
			return false
		}
		if int(idx) >= len(g.rails) {
			continue // the deadline sentinel
		}
		if tcp := g.rails[idx].tcp; tcp != nil && tcp.serving(fabric.RKey(key)) {
			return true
		}
	}
}

// beginSweep takes a sweep reference — a rail-death or timeout sweep
// about to re-issue the state's chunks — unless the state was
// abandoned. The reference blocks the state from being pool-recycled
// until endSweep: the last chunk's completion may finish the transfer
// between the sweep's decision (under Gate.mu) and its re-issue pass
// (after), and re-issuing against a recycled state would corrupt
// whatever rendezvous took it from the pool. Must be called under
// Gate.mu while the state is still in g.rdvRecv — that is what
// guarantees it has not completed and been recycled under a new owner.
func (st *recvRdvState) beginSweep() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed {
		return false
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
	*st = recvRdvState{chunks: st.chunks[:0], keys: st.keys[:0]}
	e.recvRdvPool.Put(st)
}

// errRdvRejected reports a rendezvous the peer had no state for (it
// answered with a NACK): the handshake lost its other half.
var errRdvRejected = errors.New("nmad: peer rejected the rendezvous (no matching state)")

// errShortRecvBuffer reports an IrecvInto whose buffer cannot hold the
// matched message.
var errShortRecvBuffer = errors.New("nmad: receive buffer shorter than the matched message")

// startRecvRdv begins reception for a matched RTS: parse the offer and
// build the chunk table — striped across the rails this side can read
// through, or one keyless chunk when there are none, which issueChunk
// fails — then publish the state in g.rdvRecv and issue every chunk.
// The tables are complete before anything else can see the state; the
// issuing follows publication, because a completion (or a failure)
// looks the state up there.
func (e *Engine) startRecvRdv(g *Gate, st *recvRdvState, ext []byte) {
	// Decode the offer into a per-rail key table (index = our rail).
	st.keys = slices.Grow(st.keys[:0], len(g.rails))[:len(g.rails)]
	clear(st.keys)
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
		// Transfer phase: match → every byte home; finishRecvRdv
		// closes it.
		e.rec.Record(g.id, trace.EvTransferBegin, req.traceID, uint64(req.total))
	}
	for i := 0; i < n; i++ {
		e.issueChunk(g, st, i)
	}
}

// issueChunk posts (or re-posts) chunk i of a rendezvous receive:
// RMARead on the chunk's rail, falling over to another offered rail
// when the post fails, and failing the receive visibly when no rail is
// left to read it through.
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
		if e.abandonRecv(g, st, ErrDeadlineExpired) {
			e.deadlineExpired.Add(1)
		}
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
				// its domain, but retrying others is harmless.
				st.keys[c.rail] = 0
			} else {
				// The rail cannot serve reads anymore; it is dead for
				// our purposes (the send path will discover its own
				// half independently). When it was the gate's last
				// rail, fail the gate exactly as a poll error on the
				// last rail would. Lock order: failGate takes Gate.mu
				// and this state's mutex, so release st.mu first.
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
			// Nothing left to read through: the transfer cannot
			// finish. Fail the receive and tell the sender (lock
			// order: the cleanup takes Gate.mu).
			st.mu.Unlock()
			e.abandonRecv(g, st, errNoReadRail)
			return
		}
		c.rail = next
	}
}

// reissue re-posts the chunks of st that pick selects — the reads a
// dead rail will never complete, or every unsettled chunk of a stalled
// receive — then returns the caller's beginSweep reference. issueChunk
// skips dead rails and keeps the outstanding-read accounting straight.
func (e *Engine) reissue(g *Gate, st *recvRdvState, pick func(c *rdvChunk) bool) {
	defer st.endSweep()
	st.mu.Lock()
	var todo []int
	for i := range st.chunks {
		if pick(&st.chunks[i]) {
			todo = append(todo, i)
		}
	}
	st.mu.Unlock()
	for _, i := range todo {
		e.issueChunk(g, st, i)
	}
}

// errNoReadRail reports a rendezvous chunk no rail of the gate can read
// any more: none is alive, pull-capable and covered by the offer.
var errNoReadRail = errors.New("nmad: no rail left to read the rendezvous through")

// abandonRecv fails a rendezvous receive that cannot finish: remove the
// state, NACK the sender (its half fails promptly instead of waiting
// out its own sweep), complete the receive with err. Idempotent against
// racing sweeps through the same remove-first pattern as
// finishRecvRdv; reports whether this call did it.
func (e *Engine) abandonRecv(g *Gate, st *recvRdvState, err error) bool {
	if g.takeRecvRdv(st.msgID, st) == nil {
		return false // completed or failed by another path first
	}
	st.markFailed()
	g.sendControl(KindRdvNack, st.tag, st.msgID, nackSend, 0)
	st.req.complete(err)
	return true
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

// sendControl ships one request-less control frame (FIN, RdvNack).
// Offset/extra land in the header's Offset/Total fields, whose meaning
// is per kind.
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
