package core

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// Progression belongs to the engine. The paper's PIOMan is one service
// every communication library submits tasks to, driven by idle cores
// and timer ticks rather than by the libraries: here the engine owns
// the one background progression context (Config.Progress), the one
// clock (Config.Clock) and one-shot timers (SubmitAt), and a library
// only submits.

// noTimer is nextDue while no timer is armed.
const noTimer = math.MaxInt64

// parkForever is the progression context's park bound: a submission,
// the next due timer or Close ends the park.
const parkForever = time.Duration(math.MaxInt64)

// timer is one armed SubmitAt: the task and its due time on the clock.
type timer struct {
	at int64
	t  *Task
}

// NewDefault builds the engine a library creates when its caller gives
// it none: the host topology, the adaptive drain and steal controllers
// (the engine serves only progression tasks, so there is no externally
// tuned workload to preserve) and a progression context. Whoever builds
// it closes it.
func NewDefault() *Engine {
	return New(Config{
		AdaptiveDrain: true,
		Steal:         StealConfig{Policy: StealFullTree, Adaptive: true},
		Progress:      true,
	})
}

// Now reads the engine's clock (Config.Clock), in nanoseconds.
func (e *Engine) Now() int64 { return e.clock() }

// SubmitAt arms t as a one-shot timer: the first pass that starts at or
// after at (on the engine's clock) submits it, timers due together in
// (due time, arming order), and runs it like any submitted task. The
// passes that release timers are the progression context's when the
// engine has one (it parks at most until the next timer, and waiters
// pay nothing for timers), and every Schedule pass otherwise. The task
// must be in StateFree and have a non-nil Fn; a task recycled with
// Reset re-arms without allocating.
func (e *Engine) SubmitAt(t *Task, at int64) error {
	if err := submitPrep(t, "SubmitAt"); err != nil {
		return err
	}
	e.timerMu.Lock()
	i := len(e.timers)
	for i > 0 && e.timers[i-1].at > at {
		i--
	}
	e.timers = slices.Insert(e.timers, i, timer{at: at, t: t})
	first := i == 0
	if first {
		e.nextDue.Store(at)
	}
	e.timerMu.Unlock()
	if first {
		// A parked scheduler bounds its park by the next timer: re-bound.
		e.wakeParked()
	}
	return nil
}

// releaseDue submits every timer due now, in order.
func (e *Engine) releaseDue() {
	due := e.nextDue.Load()
	if due == noTimer {
		return
	}
	now := e.clock()
	if now < due {
		return
	}
	e.timerMu.Lock()
	n := 0
	for ; n < len(e.timers) && e.timers[n].at <= now; n++ {
		t := e.timers[n].t
		e.submitTo(t, e.QueueFor(t.CPUSet))
	}
	e.timers = slices.Delete(e.timers, 0, n)
	next := int64(noTimer)
	if len(e.timers) > 0 {
		next = e.timers[0].at
	}
	e.nextDue.Store(next)
	e.timerMu.Unlock()
}

// Progressing reports whether the engine's progression context runs: a
// waiter may then park, because something else executes the tasks it
// waits on.
func (e *Engine) Progressing() bool { return e.loopDone != nil && !e.closed.Load() }

// background runs the progression context: the stand-in for
// idle cores and timer interrupts executing PIOMan tasks while the
// application computes. A pass that ran nothing parks it until a task
// is submitted or the next timer is due, so an idle engine costs no
// CPU.
func (e *Engine) background() {
	defer close(e.loopDone)
	// Scan from CPU 1 where there is one, so the context does not share
	// a counter shard with waiters, which scan as CPU 0.
	cpu := 1 % e.topo.NCPUs
	for !e.closed.Load() {
		e.releaseDue()
		if e.Schedule(cpu) > 0 {
			runtime.Gosched()
			continue
		}
		e.SetIdle(cpu, true)
		e.park(cpu, parkForever)
		e.SetIdle(cpu, false)
	}
}

// Close stops the progression context, if any, and waits for it to
// exit. Tasks still queued or armed stay where they are: a later
// Schedule runs them, and Submit after Close is harmless.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) || e.loopDone == nil {
		return
	}
	e.wakeParked()
	<-e.loopDone
}
