// Package core implements the paper's primary contribution: a scalable,
// generic, lightweight task scheduling system ("ltask" engine) for
// communication libraries, as implemented in the PIOMan I/O manager.
//
// A communication library delegates its internal work — polling a NIC,
// submitting a packet, replying to a rendezvous handshake — to the engine
// as Tasks. Each task carries a CPU set restricting where it may run and
// an optional Repeat flag for work that must be retried until it succeeds
// (e.g. network polling). Tasks are stored in per-topology-node queues
// (per-core, per-cache, per-chip, per-NUMA, global; paper Fig. 2) chosen
// as the deepest topology domain covering the task's CPU set, so that
// locality is preserved and lock contention stays within a memory domain.
//
// Engine.Schedule runs at the paper's keypoints, which here are real
// code paths: a request's Wait loop, the engine's own background
// progression context (Config.Progress), and explicit drivers (the
// experiment harnesses, the chaos cluster). Schedule implements the paper's
// Algorithm 1 (scan queues from the local per-core queue up to the global
// queue) and each queue's drain implements a batched generalisation of
// Algorithm 2 (double-checked locking so empty queues are scanned
// without acquiring their lock, and up to Config.DrainBatch tasks are
// detached per acquisition).
//
// The hot paths are engineered to stay well under a context-switch
// budget: Submit of a pinned task resolves its queue through a
// precomputed per-CPU table (no tree walk, no map hash, no allocation),
// statistics are sharded per CPU or derived from per-queue counters,
// and queue fields are laid out to eliminate false sharing between
// producer and consumer cores. DESIGN.md documents the architecture and
// the measured numbers.
package core

import (
	"fmt"
	"sync/atomic"

	"pioman/internal/cpuset"
)

// Option is a bit set of task behaviour flags.
type Option uint32

const (
	// Repeat marks a task that must be re-enqueued and retried until its
	// function reports completion — the paper's mechanism for network
	// polling tasks ("considered completed once the corresponding network
	// polling succeeds").
	Repeat Option = 1 << iota
)

// State is the lifecycle state of a Task.
type State uint32

// Task lifecycle: Free -> Submitted -> Running -> (Submitted for
// unfinished repeats | Done).
const (
	StateFree State = iota
	StateSubmitted
	StateRunning
	StateDone
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateSubmitted:
		return "submitted"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", uint32(s))
	}
}

// Func is a task body. It receives the task's Arg. For Repeat tasks the
// return value reports completion: false re-enqueues the task for another
// attempt, true completes it. For one-shot tasks the return value is
// ignored.
type Func func(arg any) bool

// Task is one unit of delegated work. The struct is designed to be
// embedded in a larger structure (the paper embeds it in NewMadeleine's
// packet wrapper) so that submitting a task performs no allocation.
//
// A Task must not be mutated between Submit and completion. After Done,
// Reset allows reuse.
type Task struct {
	// Fn is the task body; it must be non-nil at Submit time.
	Fn Func
	// Arg is passed to Fn. Using a pointer type avoids boxing allocations.
	Arg any
	// CPUSet restricts which CPUs may execute the task. The empty set
	// means "any CPU" and places the task in the global queue.
	CPUSet cpuset.Set
	// Options holds behaviour flags (Repeat).
	Options Option
	// OnDone, if non-nil, is invoked exactly once when the task reaches
	// StateDone, on the CPU that completed it.
	OnDone func(*Task)

	// life packs State and run count (see lifeShift), so that every
	// lifecycle transition is one atomic instruction.
	life    atomic.Uint64
	lastCPU atomic.Int64

	// submitTS stamps when the task last entered a queue (recorder
	// clock), so EvTaskRun can attribute queue wait. Only written when a
	// recorder is attached; the queue lock's release/acquire pair orders
	// the plain write (before enqueue) against the run-side read.
	submitTS int64

	// next links the task into an intrusive queue; owned by the queue's
	// lock while the task is queued.
	next *Task
	// home is the queue the task was submitted to; Repeat re-enqueues
	// return it there ("the task is re-enqueued into the same list").
	home *Queue
	// stealable records that the task counts in home's stealable
	// count: SubmitLocal parked it on a victim leaf although a CPU
	// other than the leaf's owner may run it.
	stealable bool
}

// Task.life holds the State in its low lifeShift bits, the run count above.
const (
	lifeShift = 2
	lifeRun   = 1 << lifeShift // one run
)

// State returns the task's current lifecycle state.
func (t *Task) State() State { return State(t.life.Load() & (lifeRun - 1)) }

// Done reports whether the task has completed.
func (t *Task) Done() bool { return t.State() == StateDone }

// Runs returns how many times the task body has been executed.
func (t *Task) Runs() uint64 { return t.life.Load() >> lifeShift }

// LastCPU returns the CPU that most recently executed the task, or -1 if
// it has never run. The never-ran case is derived from the run count,
// so neither Reset nor Submit re-initializes the CPU slot.
func (t *Task) LastCPU() int {
	if t.Runs() == 0 {
		return -1
	}
	return int(t.lastCPU.Load())
}

// Reset returns a completed (or never-submitted) task to StateFree so the
// embedding structure can be reused. It panics if the task is queued or
// running. One store clears state and run count; atomic stores are
// locked instructions, so Reset skips the CPU slot, which changes
// nothing (LastCPU reads "never ran" from the run count).
func (t *Task) Reset() {
	switch t.State() {
	case StateSubmitted, StateRunning:
		panic("core: Reset of an in-flight task")
	}
	t.life.Store(uint64(StateFree))
	t.next = nil
	t.home = nil
}

// markDone moves the running task to StateDone (one add) and runs OnDone.
func (t *Task) markDone() {
	t.life.Add(uint64(StateDone - StateRunning))
	if t.OnDone != nil {
		t.OnDone(t)
	}
}
