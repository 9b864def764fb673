package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/cpuset"
)

// parkedSoon waits until n schedulers are parked on e.
func parkedSoon(t *testing.T, e *Engine, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.parked.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d schedulers parked, want %d", e.parked.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestParkWakesOnSubmit(t *testing.T) {
	e := kwakEngine()
	done := make(chan time.Duration)
	go func() {
		start := time.Now()
		e.park(0, time.Minute)
		done <- time.Since(start)
	}()
	parkedSoon(t, e, 1)
	e.MustSubmit(NewTask(func(any) bool { return true }, nil))
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit did not wake the parked scheduler")
	}
	if e.Schedule(0) != 1 {
		t.Error("the submitted task did not run")
	}
}

func TestParkTimesOut(t *testing.T) {
	e := kwakEngine()
	start := time.Now()
	e.park(0, 20*time.Millisecond)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("Park returned after %v, before its 20ms timeout", d)
	}
	if n := e.parked.Load(); n != 0 {
		t.Errorf("%d schedulers still counted parked", n)
	}
}

// A queued task the CPU can run makes park return at once; a task
// pinned elsewhere does not.
func TestParkReturnsAtOnceWhenRunnable(t *testing.T) {
	e := kwakEngine()
	e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(5)})
	start := time.Now()
	e.park(0, 20*time.Millisecond)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("a task pinned to CPU 5 woke CPU 0's park after %v", d)
	}
	quick := func(what string) {
		t.Helper()
		start := time.Now()
		e.park(0, time.Minute)
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: Park blocked %v", what, d)
		}
	}
	e.MustSubmit(NewTask(func(any) bool { return true }, nil))
	quick("root-queue task")
}

func TestParkAllocatesNothing(t *testing.T) {
	e := kwakEngine()
	e.park(0, time.Microsecond) // the first park makes the parker
	if n := testing.AllocsPerRun(100, func() { e.park(0, time.Microsecond) }); n != 0 {
		t.Errorf("Park allocates %v times per call", n)
	}
}

// TestParkWakeNoLostWakeup ping-pongs one task at a time between
// producers and a consumer that parks whenever a pass ran nothing, with
// a timeout far beyond the test's deadline: one lost wake-up stalls it.
func TestParkWakeNoLostWakeup(t *testing.T) {
	const producers, rounds = 4, 2000
	e := kwakEngine()
	var ran atomic.Int64
	stop := make(chan struct{})
	var consumers sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		consumers.Add(1)
		go func(cpu int) {
			defer consumers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if e.Schedule(cpu) == 0 {
					e.park(cpu, time.Minute)
				}
			}
		}(cpu)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				done := make(chan struct{})
				task := NewTask(func(any) bool { ran.Add(1); return true }, nil)
				task.OnDone = func(*Task) { close(done) }
				e.MustSubmit(task)
				<-done
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Errorf("stalled after %d of %d tasks: a wake-up was lost", ran.Load(), producers*rounds)
	}
	close(stop)
	for !waitTimeout(&consumers, 10*time.Millisecond) {
		e.wakeParked()
	}
}

// waitTimeout waits for wg up to d and reports whether it finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}
