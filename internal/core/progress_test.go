package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/topology"
)

// virtualEngine is a kwak engine on a clock the test sets by hand, with
// no progression context.
func virtualEngine(now *atomic.Int64) *Engine {
	return New(Config{Topology: topology.Kwak(), Clock: now.Load})
}

// TestTimersFireInDueThenArmingOrder: timers due in the same pass run
// by due time, and timers due together run in the order they were
// armed.
func TestTimersFireInDueThenArmingOrder(t *testing.T) {
	var now atomic.Int64
	e := virtualEngine(&now)
	var order []string
	for _, tm := range []struct {
		name string
		at   int64
	}{{"a20", 20}, {"b10", 10}, {"c20", 20}, {"d10", 10}, {"e5", 5}} {
		name := tm.name
		if err := e.SubmitAt(NewTask(func(any) bool { order = append(order, name); return true }, nil), tm.at); err != nil {
			t.Fatal(err)
		}
	}
	now.Store(30)
	if n := e.Schedule(0); n != 5 {
		t.Fatalf("the pass ran %d tasks, want the 5 due timers", n)
	}
	want := []string{"e5", "b10", "d10", "a20", "c20"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("timers ran in order %v, want %v", order, want)
		}
	}
}

// TestTimerFiresAtDueNotBefore: on a virtual clock a timer fires in the
// first Schedule pass that starts at or after its due time — never
// before, and not later either, however far the clock jumped past it.
func TestTimerFiresAtDueNotBefore(t *testing.T) {
	var now atomic.Int64
	e := virtualEngine(&now)
	task := NewTask(func(any) bool { return true }, nil)
	if err := e.SubmitAt(task, 100); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{0, 50, 99} {
		now.Store(at)
		if n := e.Schedule(0); n != 0 || task.Done() {
			t.Fatalf("at %d, before its due time 100, a pass ran %d tasks (timer done: %v)", at, n, task.Done())
		}
	}
	now.Store(100)
	if n := e.Schedule(0); n != 1 || !task.Done() {
		t.Fatalf("the pass at the due time ran %d tasks (timer done: %v), want the timer", n, task.Done())
	}
	late := NewTask(func(any) bool { return true }, nil)
	if err := e.SubmitAt(late, 150); err != nil {
		t.Fatal(err)
	}
	now.Store(1000)
	if n := e.Schedule(0); n != 1 || !late.Done() {
		t.Fatalf("the first pass past the due time ran %d tasks (timer done: %v), want the timer", n, late.Done())
	}
	if e.nextDue.Load() != noTimer {
		t.Error("no timer is armed, but a pass still reads the clock")
	}
}

// TestTimerBoundsProgressPark: a progression context with nothing to run
// parks, and an armed timer bounds that park — the timer runs at its due
// time without a submission to wake the context, and no earlier.
func TestTimerBoundsProgressPark(t *testing.T) {
	e := New(Config{Topology: topology.Kwak(), Progress: true})
	defer e.Close()
	parkedSoon(t, e, 1)
	const delay = 30 * time.Millisecond
	start := time.Now()
	fired := make(chan time.Duration, 1)
	task := NewTask(func(any) bool { fired <- time.Since(start); return true }, nil)
	if err := e.SubmitAt(task, e.Now()+int64(delay)); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-fired:
		if d < delay {
			t.Errorf("the timer ran after %v, before its %v due time", d, delay)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked progression context never ran the due timer")
	}
	parkedSoon(t, e, 1) // and it parks again
	if n := e.Stats().Executions; n != 1 {
		t.Errorf("the context ran %d tasks, want the one timer", n)
	}
}

// TestTimerRearmAllocatesNothing: re-arming a recycled timer task, and
// the pass that releases and runs it, allocate nothing.
func TestTimerRearmAllocatesNothing(t *testing.T) {
	var now atomic.Int64
	e := virtualEngine(&now)
	task := NewTask(func(any) bool { return true }, nil)
	rearm := func() {
		task.Reset()
		if err := e.SubmitAt(task, now.Add(1)); err != nil {
			t.Fatal(err)
		}
		if e.Schedule(0) != 1 {
			t.Fatal("the due timer did not run")
		}
	}
	rearm() // the first arming sizes the timer list
	if n := testing.AllocsPerRun(100, rearm); n != 0 {
		t.Errorf("re-arming a timer allocates %v times", n)
	}
}

// stableGoroutines returns the goroutine count once two readings 10 ms
// apart agree, so goroutines of earlier tests that are still exiting do
// not skew a before/after comparison.
func stableGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestProgressCloseLeavesNoGoroutine: Progress runs exactly one
// goroutine, Close stops it and waits for it, and the engine stays
// usable afterwards: Submit does not panic, and Schedule runs the task.
func TestProgressCloseLeavesNoGoroutine(t *testing.T) {
	before := stableGoroutines()
	e := New(Config{Topology: topology.Kwak(), Progress: true})
	if !e.Progressing() {
		t.Fatal("an engine built with Progress reports no progression context")
	}
	if n := stableGoroutines(); n != before+1 {
		t.Errorf("%d goroutines with a progression context, want %d", n, before+1)
	}
	e.Close()
	e.Close() // idempotent
	if e.Progressing() {
		t.Error("a closed engine still reports a progression context")
	}
	if n := stableGoroutines(); n != before {
		t.Errorf("%d goroutines after Close, want %d", n, before)
	}
	task := NewTask(func(any) bool { return true }, nil)
	e.MustSubmit(task)
	if e.Schedule(0) != 1 || !task.Done() {
		t.Error("a task submitted after Close did not run in the caller's pass")
	}
}
