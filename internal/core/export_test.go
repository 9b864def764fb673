package core

import "runtime"

// Test-only hooks: in package core's own tests, outside its API.

// NewTask returns a one-shot task running fn(arg) anywhere.
func NewTask(fn Func, arg any) *Task {
	return &Task{Fn: fn, Arg: arg}
}

// WaitActive waits for t to complete while executing pending tasks on
// behalf of cpu — the paper's overlap mechanism: a thread blocked on
// communication turns its core into a task-processing core.
func (e *Engine) WaitActive(t *Task, cpu int) {
	for !t.Done() {
		if e.Schedule(cpu) == 0 {
			// Nothing runnable here; let other goroutines progress.
			runtime.Gosched()
		}
	}
}

// StealRate returns cpu's current steal hit-rate estimate in [0, 1] —
// the adaptive-steal feedback signal. It reports 1 (optimistic) when
// the CPU has not attempted a steal yet or Steal.Adaptive is off.
func (e *Engine) StealRate(cpu int) float64 {
	if e.stealRate == nil {
		return 1
	}
	if r, ok := e.stealRate.Shard(cpu); ok {
		return r
	}
	return 1
}

// IsIdle reports whether a CPU was last marked idle.
func (e *Engine) IsIdle(cpu int) bool {
	return cpu >= 0 && cpu < len(e.idle) && e.idle[cpu].v.Load()
}

// Dequeues returns the total number of tasks detached by drains.
func (q *Queue) Dequeues() uint64 { return q.dequeues.Load() }

// Retries returns the CAS retry count of the lock-free variant (its
// contention analogue); zero for the locked variants.
func (q *Queue) Retries() uint64 {
	if q.kind == QueueLockFree {
		return q.lf.Retries()
	}
	return 0
}
