package nmad

import (
	"encoding/binary"
	"errors"
	"sync"

	"pioman/internal/core"
	"pioman/internal/trace"
)

// The send lane.
//
// Every frame a gate emits — eager messages, RTSes, FINs, eager acks,
// NACKs and the deadline sweep's retransmissions — is pushed onto the
// gate's one FIFO lane and leaves through the lane's one task. The task
// is embedded in the gate, so pushing a frame allocates nothing (paper
// §IV-B: "the task structure does not require an allocation since it is
// included in the packet wrapper structure"; here the wrapper is the
// gate). At most one lane task per gate is queued or running at any
// time, so a gate's frames never run on two cores at once and reach its
// rails in push order: per-tag order on one rail (MPI's non-overtaking
// rule) holds by construction — an ordered chain inside the unordered
// task pool.
//
// The drain picks the rail once per run it takes off the lane. Under
// StrategyAggreg it packs consecutive eager entries into KindAggr frames
// bounded by MaxAggr; a lone entry stays a plain frame. A backpressured
// eager or aggregate frame is dropped: its messages stay in the ack
// window, and the deadline sweep retransmits them once the peer's ring
// drains. A backpressured RTS, FIN or NACK, which state on the peer
// waits on, stops the drain with the frame still at the head: the task
// requeues (core.Repeat) for at most maxSendRetries passes, so no later
// frame overtakes it.

// sendLane is a gate's send queue and its drain task. mu guards pending
// and running and is never taken under Gate.mu; running is set from the
// push that submits the task until the task's OnDone finds the lane
// empty. The other fields belong to the running task alone.
type sendLane struct {
	mu      sync.Mutex
	pending []pendingSend
	running bool
	task    core.Task

	spare   []pendingSend     // swapped in for the run the task takes
	retries int               // backpressured passes the head frame has used
	ids     []uint64          // a failed eager frame's msgIDs
	agg     []byte            // aggregate payload assembly
	imm     [immBufBytes]byte // header+extension assembly for byte endpoints
}

// pendingSend is one frame on the lane.
type pendingSend struct {
	hdr     Header
	payload []byte
	ext     []byte // imm extension: an RTS's pull offer
}

// push appends frames to the gate's lane, in order and under one lock,
// and submits the lane's task unless it is already queued or running.
func (g *Gate) push(frames ...pendingSend) {
	l := &g.lane
	l.mu.Lock()
	l.pending = append(l.pending, frames...)
	start := !l.running
	l.running = true
	l.mu.Unlock()
	if start {
		g.submitLane()
	}
}

// submitLane recycles and submits the lane's task.
func (g *Gate) submitLane() {
	g.lane.task.Reset()
	g.eng.tasks.MustSubmit(&g.lane.task)
}

func runLane(arg any) bool { return arg.(*Gate).drainLane() }

// laneDone is the lane task's OnDone: the task is done, so it may be
// recycled; end the drain, or submit the task again at once when a
// frame was pushed after the body last looked.
func laneDone(t *core.Task) {
	g := t.Arg.(*Gate)
	l := &g.lane
	l.mu.Lock()
	again := len(l.pending) > 0
	l.running = again
	l.mu.Unlock()
	if again {
		g.submitLane()
	}
}

// drainLane sends the lane's frames in push order. Swapping in the
// spare slice, not nil, lets the next burst append into storage already
// grown. False: a control frame is backpressured at the head of a run;
// the unsent rest goes back in front of whatever was pushed since, and
// the task requeues.
func (g *Gate) drainLane() bool {
	l := &g.lane
	for {
		l.mu.Lock()
		run := l.pending
		if len(run) == 0 {
			l.mu.Unlock()
			return true
		}
		l.pending = l.spare
		l.mu.Unlock()

		n := g.sendRun(run)
		clear(run[:n]) // no payload stays reachable from a sent entry
		if n < len(run) {
			l.mu.Lock()
			later := l.pending
			l.pending = append(run[n:], later...)
			l.mu.Unlock()
			clear(later)
			l.spare = later[:0]
			return false
		}
		l.spare = run[:0]
	}
}

// sendRun sends one run taken off the lane on the rail pickEager
// chooses for it, and returns how many entries went out or were
// dropped: fewer than len(run) when a control frame stalls at that
// index.
func (g *Gate) sendRun(run []pendingSend) int {
	cfg := &g.eng.cfg
	rail := g.pickEager()
	for i := 0; i < len(run); {
		n := 1
		if cfg.Strategy == StrategyAggreg && run[i].hdr.Kind == KindEager {
			for total := len(run[i].payload); i+n < len(run) && run[i+n].hdr.Kind == KindEager &&
				total+len(run[i+n].payload) <= cfg.MaxAggr; n++ {
				total += len(run[i+n].payload)
			}
		}
		if !g.emit(&rail, run[i:i+n]) {
			return i
		}
		i += n
	}
	return len(run)
}

// emit sends one frame — a lone entry, or several eager entries packed
// into a KindAggr frame — and routes its outcome. An eager or aggregate
// frame's messages are owned by the ack window, which its wire-out
// hands to the ack wait and a hard failure fails. A failed RTS fails
// the send waiting on a reply that will now never come. False: a
// backpressured control frame with retries left; the drain stops there.
func (g *Gate) emit(rail *int, batch []pendingSend) bool {
	e := g.eng
	l := &g.lane
	f := batch[0]
	if len(batch) > 1 {
		l.agg = packAggr(batch, l.agg)
		f = pendingSend{hdr: Header{Kind: KindAggr, Total: uint32(len(l.agg))}, payload: l.agg}
	}
	f.hdr.Floor = g.floor.Load()
	err := errAllRailsDead
	if *rail >= 0 {
		err = g.put(rail, f)
	}
	kind := f.hdr.Kind
	backpressured := errors.Is(err, ErrBackpressure)
	if backpressured && l.retries < maxSendRetries && (kind == KindRTS || kind == KindFin || kind == KindRdvNack) {
		l.retries++
		return false
	}
	l.retries = 0
	if kind >= KindFin { // FIN, eager ack, NACK: sendControl's kinds
		e.owed.Add(-1)
	}
	switch {
	case kind == KindRTS && err != nil:
		g.failSendRdv(f.hdr.MsgID, err)
	case kind >= KindRTS:
		// Sent, or a FIN, ack or NACK lost: the peer's sweeps recover.
	case err == nil:
		if kind == KindAggr {
			e.aggrFrames.Add(1)
			e.aggregated.Add(uint64(len(batch)))
		}
		if rec := e.rec; rec != nil {
			// Wire-out is a phase boundary: an eager frame leaving the
			// wire ends its injection phase and starts the ack wait.
			// Retransmitted frames re-record — the analyzer folds
			// duplicates as first-begin/last-end.
			for _, m := range batch {
				sid := g.spanID(trace.DirSend, 0, m.hdr.MsgID)
				rec.Record(g.id, trace.EvInjectEnd, sid, 0)
				rec.Record(g.id, trace.EvAckWaitBegin, sid, 0)
			}
		}
	case !backpressured:
		// The frame could not be sent at all: fail its messages now. A
		// backpressured one is simply dropped instead.
		l.ids = l.ids[:0]
		for _, m := range batch {
			l.ids = append(l.ids, m.hdr.MsgID)
		}
		e.settleEager(g, l.ids, err)
	}
	return true
}

// errAllRailsDead reports a send that found no alive rail to run on.
var errAllRailsDead = errors.New("nmad: every rail of the gate has failed")

// maxSendRetries bounds how many passes a backpressured control frame
// holds the head of the lane before its failure surfaces; each pass is
// a full scheduling pass, giving the peer's ring time to drain.
const maxSendRetries = 64

// put hands one frame to rail *rail. A send failure marks the rail dead
// and re-routes the frame onto the best surviving rail — re-striping in
// flight — so a multirail request survives the loss of any proper
// subset of its rails; *rail follows, and is -1 once none is left. A
// backpressured rail stays alive, and its error is returned as is.
func (g *Gate) put(rail *int, f pendingSend) error {
	for {
		r := g.rails[*rail]
		var err error
		if r.dead.Load() {
			err = errAllRailsDead
		} else if fe, ok := r.ep.(frameEndpoint); ok {
			// The package's rails: the decoded Header moves straight
			// through, no codec round-trip.
			err = fe.SendFrame(f.hdr, f.ext, f.payload)
		} else {
			// Assemble header + extension in the lane's own buffer: the
			// send path allocates nothing.
			imm := g.lane.imm[:headerBytes]
			f.hdr.encode(imm)
			err = r.ep.Send(append(imm, f.ext...), f.payload)
		}
		if err == nil {
			r.frames.Add(1)
			r.bytes.Add(uint64(len(f.payload)))
			g.eng.framesSent.Add(1)
			return nil
		}
		if errors.Is(err, ErrBackpressure) {
			return err
		}
		g.railDown(*rail)
		next := g.pickEager()
		if next < 0 || next == *rail {
			// The gate's last rail died through the send path: fail
			// the other outstanding requests too, exactly as a poll
			// error on the last rail would.
			if g.alive.Load() <= 0 {
				g.eng.failGate(g, err)
			}
			*rail = next
			return err
		}
		g.eng.restripes.Add(1)
		*rail = next
	}
}

// packAggr serializes a batch of eager messages into one frame payload
// — repeated [tag u64 | msgID u64 | size u32 | bytes] — appended onto
// buf's empty prefix; nil works and simply allocates.
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
