package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Completion is the one-shot completion of an operation a library runs
// through the engine: an nmad send or receive, an iomgr read, write or
// filter. Libraries embed it in their request handles as an unexported
// field, so that only they complete it; callers observe it through
// Test, Err, Done and Engine.Await.
//
// Completing is two-phase: Claim is won by exactly one completer, which
// may then do work that must precede publication (closing a trace span,
// returning admission credits) before Publish records the error and
// wakes every waiter. The zero value is pending and ready to use.
type Completion struct {
	// state moves pending → claimed → done; done publishes err.
	state atomic.Uint32
	err   error
	// done is the lazily created channel behind Done; doneClosed guards
	// its single close between Publish and a racing Done.
	done       atomic.Pointer[chan struct{}]
	doneClosed atomic.Bool
	// waiter is the wake-up of an Await parked on this completion,
	// handed off exactly once: Publish takes it and signals it, or the
	// waiter takes it back when it sees the completion first. Publish
	// leaves &published in it as its last step.
	waiter atomic.Pointer[waiter]
}

// Completion states.
const (
	compPending uint32 = iota
	compClaimed
	compDone
)

// Claim reports whether the caller won the right to complete c. Exactly
// one Claim between two Resets returns true, and its caller must then
// call Publish.
func (c *Completion) Claim() bool {
	return c.state.CompareAndSwap(compPending, compClaimed)
}

// Publish completes c with err and wakes its waiters. Only the winner
// of Claim may call it, once.
func (c *Completion) Publish(err error) {
	c.err = err
	c.state.Store(compDone)
	if chp := c.done.Load(); chp != nil {
		c.closeDone(*chp)
	}
	if w := c.waiter.Swap(&published); w != nil {
		w.ch <- struct{}{}
	}
}

// published is the waiter slot's last value once Publish has finished:
// Reset waits for it, so a reused Completion never receives the wake-up
// or the channel close of its previous completion.
var published waiter

// closeDone closes the completion channel exactly once; both Publish
// and a racing lazy Done may try.
func (c *Completion) closeDone(ch chan struct{}) {
	if c.doneClosed.CompareAndSwap(false, true) {
		close(ch)
	}
}

// Test reports whether c has completed, without blocking.
func (c *Completion) Test() bool { return c.state.Load() == compDone }

// Err returns the completion error (nil before completion). The read is
// synchronized through the state word's release/acquire pair.
func (c *Completion) Err() error {
	if c.Test() {
		return c.err
	}
	return nil
}

// Done returns a channel closed at completion, for select-based
// waiting. The channel is created on first use, so callers that only
// Test or Await never pay its allocation.
func (c *Completion) Done() <-chan struct{} {
	if chp := c.done.Load(); chp != nil {
		return *chp
	}
	ch := make(chan struct{})
	if c.done.CompareAndSwap(nil, &ch) {
		if c.Test() {
			// Publish may have run between our Load and the swap and
			// missed the channel; close it ourselves.
			c.closeDone(ch)
		}
		return ch
	}
	return *c.done.Load()
}

// Reset returns a completed c to pending for reuse (a pooled request).
// It first waits out the end of the Publish that completed c, which a
// waiter may have seen complete before Publish took its wake-up or
// closed its channel. It panics if c has not completed.
func (c *Completion) Reset() {
	if !c.Test() {
		panic("core: Reset of a pending Completion")
	}
	for c.waiter.Load() != &published {
		runtime.Gosched()
	}
	c.done.Store(nil)
	c.doneClosed.Store(false)
	c.err = nil
	c.waiter.Store(nil)
	c.state.Store(compPending)
}

// waitSpins is how many passes in a row that ran no task Await makes
// before it parks. Short: the rails' goroutines and the progression
// context do the work a waiter waits for, and every pass it keeps
// scanning is CPU they lack. On a 2-vCPU guest 1–2 passes beat 4, 8,
// 16 and 64 on the benchmark's message workloads: against 64,
// pingpong_mem and rpc_tcp ran over 40 % more operations a second.
const waitSpins = 2

// Await blocks until c completes and returns its error, executing
// pending tasks meanwhile — the paper's task_wait: a thread blocked on
// communication turns its core into a progression core. Once waitSpins
// passes in a row have found nothing to run, it parks until completion
// instead — the paper's blocking fallback — leaving the CPU to the
// progression context and the rails' goroutines. On an engine without a
// progression context the caller is the only progress there is, and
// Await never parks.
func (e *Engine) Await(c *Completion) error {
	for idle := 0; !c.Test(); {
		if e.Schedule(0) > 0 {
			idle = 0
		} else if idle++; idle >= waitSpins && e.Progressing() {
			c.park()
			continue
		}
		// Always yield between passes: a provider that cannot signal
		// keeps its poll task runnable, and an unyielding spin would
		// starve the peer's goroutines on oversubscribed hosts.
		runtime.Gosched()
	}
	return c.err
}

// waiter is a parked Await's wake-up: a one-slot semaphore, pooled so
// parking allocates nothing in steady state.
type waiter struct{ ch chan struct{} }

var waiters = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

// park blocks until c completes.
func (c *Completion) park() {
	w := waiters.Get().(*waiter)
	if !c.waiter.CompareAndSwap(nil, w) {
		// Publish has finished since the caller's check (the slot holds
		// &published), or another goroutine is parked on c already.
		waiters.Put(w)
		if !c.Test() {
			<-c.Done()
		}
		return
	}
	if !c.Test() || !c.waiter.CompareAndSwap(w, nil) {
		// Publish has taken w, or will: its wake-up is owed to us.
		<-w.ch
	}
	waiters.Put(w)
}
