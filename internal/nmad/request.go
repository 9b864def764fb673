package nmad

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pioman/internal/trace"
)

// Request is the completion handle for a non-blocking send or receive.
//
// Requests are pooled by the engine: the steady-state protocol hands
// out recycled handles, and a caller that is done with a successfully
// completed request may return it with Free (the MPI_Request_free
// idiom). The completion channel behind Done is created lazily, so
// Wait-based callers never pay its allocation.
type Request struct {
	eng *Engine

	// done is the lazily created completion channel; doneClosed guards
	// its single close between complete() and a racing Done().
	done       atomic.Pointer[chan struct{}]
	doneClosed atomic.Bool
	// completing is taken exactly once by the winning completer;
	// completed publishes err (written between the two).
	completing atomic.Bool
	completed  atomic.Bool
	err        error
	// waiter is the wake-up of a Wait parked on this request, handed
	// off exactly once: complete takes it and signals it, or the waiter
	// takes it back when it sees the completion first.
	waiter atomic.Pointer[waiter]

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
	// count. complete() releases them exactly once via its CAS.
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
	if !r.completing.CompareAndSwap(false, true) {
		return
	}
	if r.traceID != 0 {
		// The winning completer closes the whole-message span; riding
		// the CAS makes this exactly-once across every completion path.
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
		// submissions they unblock. Runs before completed is published,
		// so an observer that saw the request finish also sees its
		// credits returned — the post-quiesce leak audit depends on it.
		r.eng.admitRelease(r)
	}
	r.err = err
	r.completed.Store(true)
	if chp := r.done.Load(); chp != nil {
		r.closeDone(*chp)
	}
	if w := r.waiter.Swap(nil); w != nil {
		w.ch <- struct{}{}
	}
}

// closeDone closes the completion channel exactly once; both complete
// and a racing lazy Done may try.
func (r *Request) closeDone(ch chan struct{}) {
	if r.doneClosed.CompareAndSwap(false, true) {
		close(ch)
	}
}

// Test reports whether the request has completed, without blocking.
func (r *Request) Test() bool { return r.completed.Load() }

// Err returns the completion error (nil before completion). The read
// is synchronized through the completed flag's release/acquire pair.
func (r *Request) Err() error {
	if r.completed.Load() {
		return r.err
	}
	return nil
}

// Done returns a channel closed at completion, for select-based
// waiting. The channel is created on first use.
func (r *Request) Done() <-chan struct{} {
	if chp := r.done.Load(); chp != nil {
		return *chp
	}
	ch := make(chan struct{})
	if r.done.CompareAndSwap(nil, &ch) {
		if r.completed.Load() {
			// complete may have run between our Load and the swap and
			// missed the channel; close it ourselves.
			r.closeDone(ch)
		}
		return ch
	}
	return *r.done.Load()
}

// waitSpins is how many passes in a row that ran no task Wait makes
// before it parks. Short: the rails' goroutines and the background loop
// do the work a waiter waits for, and every pass it keeps scanning is
// CPU they lack. On a 2-vCPU guest 1–2 passes beat 4, 8, 16 and 64 on
// the benchmark's message workloads: against 64, pingpong_mem and
// rpc_tcp ran over 40 % more operations a second.
const waitSpins = 2

// Wait blocks until the request completes, actively executing pending
// PIOMan tasks meanwhile — the paper's task_wait: a thread blocked on
// communication turns its core into a progression core. Once waitSpins
// passes in a row have found nothing to run, it parks until completion
// instead — the paper's blocking fallback — leaving the CPU to the
// background loop and the rails' goroutines. Without background
// progression (NoAutoProgress) the caller is the only progress there
// is, and Wait never parks.
func (r *Request) Wait() error {
	for idle := 0; !r.completed.Load(); {
		if r.eng.tasks.Schedule(0) > 0 {
			idle = 0
		} else if idle++; idle >= waitSpins && !r.eng.cfg.NoAutoProgress {
			// Re-checked after the wake-up: a pooled request's previous
			// completion may still hand a stale one to its next waiter.
			r.park()
			continue
		}
		// Always yield between passes: a provider that cannot signal
		// keeps its poll task runnable, and an unyielding spin would
		// starve the peer's goroutines on oversubscribed hosts.
		runtime.Gosched()
	}
	return r.err
}

// waiter is a parked Wait's wake-up: a one-slot semaphore, pooled so
// parking allocates nothing in steady state.
type waiter struct{ ch chan struct{} }

var waiters = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

// park blocks until the request completes.
func (r *Request) park() {
	w := waiters.Get().(*waiter)
	if !r.waiter.CompareAndSwap(nil, w) {
		// Another goroutine is parked on this request already.
		waiters.Put(w)
		<-r.Done()
		return
	}
	if !r.completed.Load() || !r.waiter.CompareAndSwap(w, nil) {
		// complete has taken w, or will: its wake-up is owed to us.
		<-w.ch
	}
	waiters.Put(w)
}

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
	if !r.completed.Load() || r.err != nil {
		return
	}
	e := r.eng
	r.eng = nil
	r.done.Store(nil)
	r.doneClosed.Store(false)
	r.completing.Store(false)
	r.completed.Store(false)
	r.err = nil
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
