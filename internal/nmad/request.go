package nmad

import (
	"sync/atomic"

	"pioman/internal/core"
	"pioman/internal/trace"
)

// Request is the completion handle for a non-blocking send or receive.
//
// Requests are pooled by the engine: the steady-state protocol hands
// out recycled handles, and a caller that is done with a successfully
// completed request may return it with Free (the MPI_Request_free
// idiom). Its completion is a core.Completion.
type Request struct {
	eng *Engine
	c   core.Completion

	// Data holds the received payload once a receive completes.
	Data []byte

	// userBuf is the caller-supplied receive buffer (IrecvInto);
	// rendezvous pulls land in it directly, eager payloads are copied.
	userBuf []byte

	// recv matching state
	gate  *Gate
	tag   uint64
	total uint32
	got   atomic.Uint32

	// traceID is the whole-message span id (trace.PackSpanID) when a
	// flight recorder is attached, 0 otherwise; traceRing is the ring
	// (gate id) its events land on, and postTS the Irecv post stamp a
	// receiver's span begins at. complete() closes the span exactly
	// once, on every completion path — ack, FIN, timeout, NACK, gate
	// failure, engine close.
	traceID   uint64
	traceRing int32
	postTS    int64

	// deadline is the request's absolute deadline on the engine clock
	// (IsendDeadline), 0 for none. Immutable once the request is
	// published to the protocol maps, so sweeps read it without extra
	// synchronization.
	deadline int64
	// admitGate/admitBytes are the admission credits the request holds
	// (admission.go): the gate whose ledger was charged and the byte
	// count. complete() releases them exactly once, after its claim.
	admitGate  *Gate
	admitBytes int64
}

func newRequest(e *Engine) *Request {
	r, _ := e.reqPool.Get().(*Request)
	if r == nil {
		r = &Request{}
	}
	r.eng = e
	return r
}

// complete finishes the request exactly once.
func (r *Request) complete(err error) {
	if !r.c.Claim() {
		return
	}
	if r.traceID != 0 {
		// The winning completer closes the whole-message span; riding
		// the claim makes this exactly-once across every completion path.
		kind := trace.EvRecvEnd
		if trace.SpanDir(r.traceID) == trace.DirSend {
			kind = trace.EvSendEnd
		}
		status := uint64(0)
		if err != nil {
			status = 1
		}
		r.eng.rec.Record(int(r.traceRing), kind, r.traceID, status)
	}
	if r.admitGate != nil {
		// Return the admission credits on this, the single chokepoint
		// every completion path funnels through, and drain any parked
		// submissions they unblock. Runs before the completion is
		// published, so an observer that saw the request finish also
		// sees its credits returned — the post-quiesce leak audit
		// depends on it.
		r.eng.admitRelease(r)
	}
	r.c.Publish(err)
}

// Test reports whether the request has completed, without blocking.
func (r *Request) Test() bool { return r.c.Test() }

// Err returns the completion error (nil before completion).
func (r *Request) Err() error { return r.c.Err() }

// Done returns a channel closed at completion, for select-based
// waiting. The channel is created on first use.
func (r *Request) Done() <-chan struct{} { return r.c.Done() }

// Wait blocks until the request completes, executing pending PIOMan
// tasks meanwhile and parking once they run out (core.Engine.Await).
func (r *Request) Wait() error { return r.eng.tasks.Await(&r.c) }

// Cancel withdraws a request that has not entered the protocol yet and
// completes it with ErrCanceled: a posted receive that has not matched,
// or a send/receive still parked in the admission queue (blocking
// policy) — a parked submission holds no credits and was never
// injected, so it can always be taken back. It reports whether the
// cancellation won: false means the request already matched or was
// injected (or completed), in which case the caller must keep waiting
// for its real outcome. Injected sends cannot be canceled.
func (r *Request) Cancel() bool {
	e := r.eng
	if e == nil {
		return false
	}
	if e.admitCancel(r) {
		r.complete(ErrCanceled)
		return true
	}
	g := r.gate
	if g == nil {
		return false
	}
	g.mu.Lock()
	removed := false
	if q := g.recvQ[r.tag]; q != nil {
		for i := q.head; i < len(q.items); i++ {
			if q.items[i] == r {
				copy(q.items[i:], q.items[i+1:])
				q.items[len(q.items)-1] = nil
				q.items = q.items[:len(q.items)-1]
				removed = true
				dropFIFOIfEmpty(g.recvQ, &e.reqFIFOPool, r.tag, q)
				break
			}
		}
	}
	g.mu.Unlock()
	if !removed {
		return false
	}
	r.complete(ErrCanceled)
	return true
}

// Free returns a successfully completed request to the engine's pool;
// the caller must not touch it afterwards. Calling Free before
// completion, or after a completion with an error, is a no-op: failure
// paths may still hold references to the handle (a re-issued read
// completing late, a conservative failure sweep), so only the clean
// path recycles. Free is optional — unfreed requests are simply
// garbage collected.
func (r *Request) Free() {
	if !r.c.Test() || r.c.Err() != nil {
		return
	}
	e := r.eng
	r.eng = nil
	r.c.Reset()
	r.Data = nil
	r.userBuf = nil
	r.gate = nil
	r.tag = 0
	r.total = 0
	r.got.Store(0)
	r.traceID = 0
	r.traceRing = 0
	r.postTS = 0
	r.deadline = 0
	r.admitGate = nil
	r.admitBytes = 0
	e.reqPool.Put(r)
}
