package core

import (
	"slices"
	"time"
)

// Parking is the blocking half of progression. The paper's PIOMan polls
// from idle cores and timer ticks and, when no core is idle, falls back
// to a blocking call on a spare thread; here a scheduler whose pass ran
// nothing (a progression loop, a waiter past its spin budget) parks
// until new work is submitted or its timeout passes. Submission pays one
// atomic load while nobody is parked.

// parker is one parked scheduler: a one-slot wake-up and the timer that
// bounds the park. Parkers are recycled through the engine's free list,
// so parking allocates nothing in steady state.
type parker struct {
	ch    chan struct{}
	timer *time.Timer
}

// Park blocks the calling scheduler, on behalf of cpu, until work it
// could run is submitted, Wake is called, or d passes. It returns at
// once when d ≤ 0, when a queue on cpu's scan path (any queue, with
// stealing on) already holds a task, or when a Wake arrived while
// nobody was parked. Callers re-check their own condition after it
// returns: a wake-up may be spurious.
func (e *Engine) Park(cpu int, d time.Duration) {
	if d <= 0 {
		return
	}
	e.parkMu.Lock()
	var p *parker
	if n := len(e.parkFree); n > 0 {
		p = e.parkFree[n-1]
		e.parkFree = e.parkFree[:n-1]
	} else {
		p = &parker{ch: make(chan struct{}, 1), timer: time.NewTimer(d)}
		p.timer.Stop()
	}
	e.parkers = append(e.parkers, p)
	e.parked.Add(1)
	e.parkMu.Unlock()

	// Registered before looking: a Submit that enqueued before this
	// check is seen by it, one that enqueues after sees the parker.
	if !e.permit.Swap(false) && !e.runnable(cpu) {
		p.timer.Reset(d)
		select {
		case <-p.ch:
		case <-p.timer.C:
		}
		p.timer.Stop()
	}

	e.parkMu.Lock()
	if i := slices.Index(e.parkers, p); i >= 0 {
		e.parkers = slices.Delete(e.parkers, i, i+1)
		e.parked.Add(-1)
	}
	select { // a wake-up that raced with the timeout
	case <-p.ch:
	default:
	}
	e.parkFree = append(e.parkFree, p)
	e.parkMu.Unlock()
}

// Wake releases every parked scheduler and leaves a permit, so the next
// Park returns at once even when nobody was parked yet: a caller that
// completes something a parker checks before parking (iomgr's request
// finish) cannot lose its wake-up to that window.
func (e *Engine) Wake() {
	e.permit.Store(true)
	e.wakeParked()
}

// wakeParked is the submission side: after an enqueue, release the
// parked schedulers, if any, so one of them runs the new task.
func (e *Engine) wakeParked() {
	if e.parked.Load() == 0 {
		return
	}
	e.parkMu.Lock()
	for _, p := range e.parkers {
		select {
		case p.ch <- struct{}{}:
		default:
		}
	}
	e.parked.Add(-int32(len(e.parkers)))
	clear(e.parkers)
	e.parkers = e.parkers[:0]
	e.parkMu.Unlock()
}

// runnable reports whether a Schedule pass on cpu could find a task:
// some queue on its scan path holds one, or, with stealing on, any
// queue does.
func (e *Engine) runnable(cpu int) bool {
	qs := e.queues
	if e.cfg.Steal.Policy == StealOff && cpu >= 0 && cpu < len(e.paths) {
		qs = e.paths[cpu]
	}
	for _, q := range qs {
		if !q.Empty() {
			return true
		}
	}
	return false
}
