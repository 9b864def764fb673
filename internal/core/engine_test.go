package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/cpuset"
	"pioman/internal/topology"
)

func kwakEngine() *Engine {
	return New(Config{Topology: topology.Kwak()})
}

func TestSubmitPlacement(t *testing.T) {
	e := kwakEngine()
	cases := []struct {
		cs   cpuset.Set
		kind topology.Kind
	}{
		{cpuset.New(0), topology.Core},
		{cpuset.New(4, 6), topology.Cache},
		{cpuset.NewRange(8, 11), topology.Cache},
		{cpuset.New(0, 15), topology.Machine},
		{cpuset.Set{}, topology.Machine},
	}
	for _, c := range cases {
		task := &Task{Fn: func(any) bool { return true }, CPUSet: c.cs}
		if err := e.Submit(task); err != nil {
			t.Fatalf("Submit(%s): %v", c.cs, err)
		}
		if got := task.home.Node().Kind; got != c.kind {
			t.Errorf("task with cpuset %s placed on %v, want %v", c.cs, task.home.Node(), c.kind)
		}
	}
}

func TestSubmitErrors(t *testing.T) {
	e := kwakEngine()
	if err := e.Submit(&Task{}); err == nil {
		t.Error("Submit with nil Fn should fail")
	}
	task := NewTask(func(any) bool { return true }, nil)
	if err := e.Submit(task); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(task); err == nil {
		t.Error("double Submit should fail")
	}
}

func TestScheduleRunsTask(t *testing.T) {
	e := kwakEngine()
	ran := false
	task := &Task{Fn: func(arg any) bool {
		ran = arg.(string) == "hello"
		return true
	}, Arg: "hello", CPUSet: cpuset.New(3)}
	e.MustSubmit(task)
	if n := e.Schedule(3); n != 1 {
		t.Fatalf("Schedule ran %d tasks, want 1", n)
	}
	if !ran || !task.Done() {
		t.Errorf("task not executed correctly: ran=%v state=%v", ran, task.State())
	}
	if task.LastCPU() != 3 {
		t.Errorf("LastCPU = %d, want 3", task.LastCPU())
	}
	if task.Runs() != 1 {
		t.Errorf("Runs = %d, want 1", task.Runs())
	}
}

func TestScheduleLocalBeforeGlobal(t *testing.T) {
	e := kwakEngine()
	var order []string
	mk := func(name string, cs cpuset.Set) *Task {
		return &Task{Fn: func(any) bool { order = append(order, name); return true }, CPUSet: cs}
	}
	// Submit in reverse locality order; Algorithm 1 must still run the
	// per-core task first, then cache, then global.
	e.MustSubmit(mk("global", cpuset.Set{}))
	e.MustSubmit(mk("cache", cpuset.NewRange(0, 3)))
	e.MustSubmit(mk("core", cpuset.New(0)))
	if n := e.Schedule(0); n != 3 {
		t.Fatalf("ran %d tasks, want 3", n)
	}
	want := []string{"core", "cache", "global"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

func TestRepeatTaskRunsUntilSuccess(t *testing.T) {
	e := kwakEngine()
	countdown := 5
	task := &Task{
		Fn:      func(any) bool { countdown--; return countdown == 0 },
		CPUSet:  cpuset.New(2),
		Options: Repeat,
	}
	e.MustSubmit(task)
	total := 0
	for i := 0; i < 10 && !task.Done(); i++ {
		total += e.Schedule(2)
	}
	if !task.Done() {
		t.Fatal("repeat task never completed")
	}
	if task.Runs() != 5 {
		t.Errorf("Runs = %d, want 5", task.Runs())
	}
	if got := e.Stats().Requeues; got != 4 {
		t.Errorf("Requeues = %d, want 4", got)
	}
}

func TestRepeatReenqueuesOnHomeQueue(t *testing.T) {
	e := kwakEngine()
	task := &Task{
		Fn:      func(any) bool { return false },
		CPUSet:  cpuset.NewRange(4, 7),
		Options: Repeat,
	}
	e.MustSubmit(task)
	home := task.home
	e.Schedule(5)
	if task.home != home {
		t.Error("repeat task moved to a different queue")
	}
	if home.Len() != 1 {
		t.Errorf("home queue length = %d, want 1 (task re-enqueued)", home.Len())
	}
}

func TestScheduleBoundedByQueueLength(t *testing.T) {
	e := kwakEngine()
	// A repeat task that never completes must not livelock Schedule.
	task := &Task{Fn: func(any) bool { return false }, CPUSet: cpuset.New(1), Options: Repeat}
	e.MustSubmit(task)
	done := make(chan int)
	go func() { done <- e.Schedule(1) }()
	select {
	case n := <-done:
		if n != 1 {
			t.Errorf("Schedule ran %d executions, want 1 per pass", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Schedule livelocked on a never-completing repeat task")
	}
}

func TestCPUSetEnforcement(t *testing.T) {
	e := kwakEngine()
	// Task allowed only on CPUs 3 and 4 lands in the global queue (it
	// spans NUMA nodes); CPU 0 must not run it.
	task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(3, 4)}
	e.MustSubmit(task)
	if n := e.Schedule(0); n != 0 {
		t.Fatalf("CPU 0 executed %d tasks, want 0", n)
	}
	if task.Done() {
		t.Fatal("task ran on a disallowed CPU")
	}
	if e.Stats().Skips == 0 {
		t.Error("expected a recorded skip")
	}
	if n := e.Schedule(4); n != 1 {
		t.Fatalf("CPU 4 executed %d tasks, want 1", n)
	}
	if task.LastCPU() != 4 {
		t.Errorf("LastCPU = %d, want 4", task.LastCPU())
	}
}

func TestScheduleOne(t *testing.T) {
	e := kwakEngine()
	for i := 0; i < 3; i++ {
		e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)})
	}
	if !e.ScheduleOne(0) {
		t.Fatal("ScheduleOne found no task")
	}
	if got := e.Pending(); got != 2 {
		t.Errorf("Pending = %d, want 2 after ScheduleOne", got)
	}
}

func TestOnDoneCallback(t *testing.T) {
	e := kwakEngine()
	var calls atomic.Int32
	task := &Task{
		Fn:     func(any) bool { return true },
		OnDone: func(*Task) { calls.Add(1) },
		CPUSet: cpuset.New(0),
	}
	e.MustSubmit(task)
	e.Schedule(0)
	if calls.Load() != 1 {
		t.Errorf("OnDone called %d times, want 1", calls.Load())
	}
}

func TestWaitActiveExecutesWhileWaiting(t *testing.T) {
	e := kwakEngine()
	var helperRan atomic.Bool
	helper := &Task{Fn: func(any) bool { helperRan.Store(true); return true }, CPUSet: cpuset.New(0)}
	target := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
	e.MustSubmit(helper)
	e.MustSubmit(target)
	e.WaitActive(target, 0)
	if !target.Done() {
		t.Fatal("WaitActive returned before completion")
	}
	if !helperRan.Load() {
		t.Error("WaitActive should have executed the other pending task")
	}
}

func TestTaskResetReuse(t *testing.T) {
	e := kwakEngine()
	runs := 0
	task := &Task{Fn: func(any) bool { runs++; return true }, CPUSet: cpuset.New(0)}
	for i := 0; i < 3; i++ {
		e.MustSubmit(task)
		e.Schedule(0)
		if !task.Done() {
			t.Fatalf("iteration %d: task not done", i)
		}
		task.Reset()
		if task.State() != StateFree {
			t.Fatalf("Reset left state %v", task.State())
		}
	}
	if runs != 3 {
		t.Errorf("runs = %d, want 3", runs)
	}
}

// TestResetKeepsLifecycleObservable: Reset skips the stores that change
// nothing — the CPU slot — and run skips the CPU store when the CPU is
// unchanged, yet LastCPU, Runs and completion (observed through OnDone)
// read exactly as if every field were re-initialized.
func TestResetKeepsLifecycleObservable(t *testing.T) {
	e := kwakEngine()
	completions := 0
	task := &Task{Fn: func(any) bool { return true }, OnDone: func(*Task) { completions++ }}
	for i, cpu := range []int{2, 2, 5, 0, 0} {
		if got := task.LastCPU(); got != -1 {
			t.Fatalf("round %d: LastCPU = %d before running, want -1", i, got)
		}
		if task.Runs() != 0 {
			t.Fatalf("round %d: Runs = %d after Reset", i, task.Runs())
		}
		if task.Done() || completions != i {
			t.Fatalf("round %d: %d completions before running, want %d", i, completions, i)
		}
		task.CPUSet = cpuset.New(cpu)
		e.MustSubmit(task)
		if e.Schedule(cpu) != 1 {
			t.Fatalf("round %d: task did not run on CPU %d", i, cpu)
		}
		if got := task.LastCPU(); got != cpu {
			t.Errorf("round %d: LastCPU = %d, want %d", i, got, cpu)
		}
		if !task.Done() || completions != i+1 {
			t.Errorf("round %d: %d completions after running, want %d", i, completions, i+1)
		}
		task.Reset()
		if task.Done() || completions != i+1 {
			t.Fatalf("round %d: Reset completed the task again", i)
		}
		task.Reset() // resetting a free task changes nothing
	}
}

func TestResetInFlightPanics(t *testing.T) {
	e := kwakEngine()
	task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
	e.MustSubmit(task)
	defer func() {
		if recover() == nil {
			t.Error("Reset of a submitted task should panic")
		}
		e.Schedule(0) // drain for cleanliness
	}()
	task.Reset()
}

// TestLifecycleWordTransitions: state and run count share one word,
// and every transition keeps State, Runs and LastCPU reading as if
// they were separate fields: Submit → run → Repeat retry → Done →
// Reset, a rolled-back SubmitAll, and Reset of an in-flight task.
func TestLifecycleWordTransitions(t *testing.T) {
	e := kwakEngine()
	check := func(step string, task *Task, state State, runs uint64, cpu int) {
		t.Helper()
		if task.State() != state || task.Runs() != runs || task.LastCPU() != cpu {
			t.Errorf("%s: state %v, runs %d, LastCPU %d; want %v, %d, %d",
				step, task.State(), task.Runs(), task.LastCPU(), state, runs, cpu)
		}
	}
	var task *Task
	task = &Task{Options: Repeat, Fn: func(any) bool {
		if task.State() != StateRunning {
			t.Errorf("body sees state %v, want running", task.State())
		}
		return task.Runs() == 2
	}}
	check("new", task, StateFree, 0, -1)
	e.MustSubmit(task)
	check("submitted", task, StateSubmitted, 0, -1)
	if e.Schedule(3) != 1 {
		t.Fatal("first run did not happen")
	}
	check("retry", task, StateSubmitted, 1, 3)
	if e.Schedule(6) != 1 {
		t.Fatal("retry did not run")
	}
	check("done", task, StateDone, 2, 6)
	if err := e.Submit(task); err == nil {
		t.Error("Submit of a done task succeeded")
	}
	check("resubmit refused", task, StateDone, 2, 6)
	task.Reset()
	check("reset", task, StateFree, 0, -1)

	// A rolled-back batch leaves its valid tasks free and never run, and
	// the task that failed it untouched.
	free := &Task{Fn: func(any) bool { return true }}
	done := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
	e.MustSubmit(done)
	e.Schedule(0)
	if err := e.SubmitAll(free, task, done); err == nil {
		t.Fatal("SubmitAll with a done task succeeded")
	}
	check("rolled back", free, StateFree, 0, -1)
	check("rolled back", task, StateFree, 0, -1)
	check("failed the batch", done, StateDone, 1, 0)

	// Reset panics while the task is queued and while it runs.
	mustPanic := func(step string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Reset of a %s task did not panic", step)
			}
		}()
		task.Reset()
	}
	task.Fn = func(any) bool { mustPanic("running"); return true }
	e.MustSubmit(task)
	mustPanic("submitted")
	e.Schedule(0)
	check("after in-flight resets", task, StateDone, 1, 0)
}

func TestIdleTracking(t *testing.T) {
	e := kwakEngine()
	if e.IsIdle(3) {
		t.Error("CPUs start busy")
	}
	e.SetIdle(3, true)
	if !e.IsIdle(3) {
		t.Error("SetIdle(3,true) not recorded")
	}
	e.SetIdle(3, false)
	if e.IsIdle(3) {
		t.Error("SetIdle(3,false) not recorded")
	}
	e.SetIdle(-1, true) // out of range: no-op
	e.SetIdle(99, true)
}

func TestFindIdleNearPrefersSibling(t *testing.T) {
	e := kwakEngine()
	// CPU 13 (remote NUMA) and CPU 2 (same chip as 0) both idle: the
	// sibling sharing home's L3 must win.
	e.SetIdle(13, true)
	e.SetIdle(2, true)
	if got := e.findIdleNear(0); got != 2 {
		t.Errorf("findIdleNear(0) = %d, want 2", got)
	}
	// Only the remote core idle: it is still found.
	e.SetIdle(2, false)
	if got := e.findIdleNear(0); got != 13 {
		t.Errorf("findIdleNear(0) = %d, want 13", got)
	}
	// Home being idle must not return home.
	e.SetIdle(13, false)
	e.SetIdle(0, true)
	if got := e.findIdleNear(0); got != -1 {
		t.Errorf("findIdleNear(0) = %d, want -1 (home excluded)", got)
	}
}

func TestSubmitToIdle(t *testing.T) {
	e := kwakEngine()
	e.SetIdle(1, true)
	task := &Task{Fn: func(any) bool { return true }}
	if err := e.SubmitToIdle(task, 0); err != nil {
		t.Fatal(err)
	}
	if !task.CPUSet.Equal(cpuset.New(1)) {
		t.Errorf("task pinned to %s, want CPU 1", task.CPUSet)
	}
	if task.home.Node().Kind != topology.Core {
		t.Errorf("task placed on %v, want per-core queue", task.home.Node())
	}

	// No idle core: must fall back to the global queue.
	e2 := kwakEngine()
	task2 := &Task{Fn: func(any) bool { return true }}
	if err := e2.SubmitToIdle(task2, 0); err != nil {
		t.Fatal(err)
	}
	if task2.home.Node().Kind != topology.Machine {
		t.Errorf("task placed on %v, want global queue", task2.home.Node())
	}
}

func TestSingleGlobalQueueMode(t *testing.T) {
	e := New(Config{Topology: topology.Kwak(), SingleGlobalQueue: true})
	if len(e.Queues()) != 1 {
		t.Fatalf("big-lock engine has %d queues, want 1", len(e.Queues()))
	}
	task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(5)}
	e.MustSubmit(task)
	if task.home.Node().Kind != topology.Machine {
		t.Error("big-lock engine must place everything on the global queue")
	}
	// CPU-set still enforced even from the global queue.
	if n := e.Schedule(0); n != 0 {
		t.Errorf("CPU 0 ran %d tasks, want 0", n)
	}
	if n := e.Schedule(5); n != 1 {
		t.Errorf("CPU 5 ran %d tasks, want 1", n)
	}
}

func TestAllQueueKindsComplete(t *testing.T) {
	for _, kind := range []QueueKind{QueueSpinlock, QueueMutex, QueueLockFree} {
		t.Run(kind.String(), func(t *testing.T) {
			e := New(Config{Topology: topology.Kwak(), QueueKind: kind})
			const n = 200
			var ran atomic.Int32
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				cpu := i % 16
				task := &Task{Fn: func(any) bool { ran.Add(1); return true }, CPUSet: cpuset.New(cpu)}
				e.MustSubmit(task)
			}
			for cpu := 0; cpu < 16; cpu++ {
				wg.Add(1)
				go func(cpu int) {
					defer wg.Done()
					for e.Schedule(cpu) > 0 {
					}
				}(cpu)
			}
			wg.Wait()
			if ran.Load() != n {
				t.Errorf("%v: ran %d tasks, want %d", kind, ran.Load(), n)
			}
		})
	}
}

func TestAlwaysLockMode(t *testing.T) {
	e := New(Config{Topology: topology.Kwak(), AlwaysLock: true})
	task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
	e.MustSubmit(task)
	if n := e.Schedule(0); n != 1 {
		t.Errorf("AlwaysLock Schedule ran %d, want 1", n)
	}
}

func TestStatsCounters(t *testing.T) {
	e := kwakEngine()
	for i := 0; i < 4; i++ {
		e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)})
	}
	e.Schedule(0)
	s := e.Stats()
	if s.Submitted != 4 || s.Executions != 4 {
		t.Errorf("Stats = %+v, want 4 submitted/4 executed", s)
	}
	if s.ExecPerCPU[0] != 4 {
		t.Errorf("ExecPerCPU[0] = %d, want 4", s.ExecPerCPU[0])
	}
	e.ResetStats()
	if s := e.Stats(); s.Submitted != 0 || s.Executions != 0 {
		t.Errorf("after reset Stats = %+v", s)
	}
}

func TestQueueLockStats(t *testing.T) {
	e := kwakEngine()
	task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
	e.MustSubmit(task)
	e.Schedule(0)
	q := e.QueueFor(cpuset.New(0))
	acq, _ := q.LockStats()
	if acq == 0 {
		t.Error("spinlock queue should have recorded acquisitions")
	}
	if q.Enqueues() != 1 || q.Dequeues() != 1 {
		t.Errorf("queue counters = %d/%d, want 1/1", q.Enqueues(), q.Dequeues())
	}
}

func TestEmptyQueueScanTakesNoLock(t *testing.T) {
	// Algorithm 2's whole point: scheduling over empty queues must not
	// acquire any queue lock.
	e := kwakEngine()
	e.Schedule(0)
	for _, q := range e.Queues() {
		if acq, _ := q.LockStats(); acq != 0 {
			t.Errorf("queue %v acquired its lock %d times on an empty scan", q.Node(), acq)
		}
	}
}

func TestConcurrentSubmitAndSchedule(t *testing.T) {
	e := kwakEngine()
	const producers = 4
	const perProducer = 500
	var executed atomic.Int64
	var wg sync.WaitGroup

	stop := make(chan struct{})
	// Scheduler goroutines standing in for cores.
	for cpu := 0; cpu < 16; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for {
				e.Schedule(cpu)
				select {
				case <-stop:
					for e.Schedule(cpu) > 0 { // final drain
					}
					return
				default:
				}
			}
		}(cpu)
	}

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProducer; i++ {
				var cs cpuset.Set
				switch rng.Intn(3) {
				case 0:
					cs = cpuset.New(rng.Intn(16))
				case 1:
					chip := rng.Intn(4)
					cs = cpuset.NewRange(chip*4, chip*4+3)
				case 2:
					// empty: any CPU
				}
				e.MustSubmit(&Task{Fn: func(any) bool { executed.Add(1); return true }, CPUSet: cs})
			}
		}(p)
	}
	pwg.Wait()

	deadline := time.After(10 * time.Second)
	for executed.Load() < producers*perProducer {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("executed %d of %d tasks before deadline", executed.Load(), producers*perProducer)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if executed.Load() != producers*perProducer {
		t.Errorf("executed = %d, want %d", executed.Load(), producers*perProducer)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after drain", e.Pending())
	}
}

func TestTasksRunOnlyOnAllowedCPUs(t *testing.T) {
	// Property: whatever interleaving occurs, a task's executing CPU is
	// always a member of its CPU set.
	e := kwakEngine()
	type obs struct {
		cs  cpuset.Set
		cpu int
	}
	var mu sync.Mutex
	var observations []obs
	rng := rand.New(rand.NewSource(7))
	const n = 300
	for i := 0; i < n; i++ {
		cs := cpuset.New(rng.Intn(16))
		if rng.Intn(2) == 0 {
			cs.Set(rng.Intn(16))
		}
		task := &Task{CPUSet: cs}
		task.Fn = func(any) bool {
			mu.Lock()
			observations = append(observations, obs{cs: task.CPUSet, cpu: task.LastCPU()})
			mu.Unlock()
			return true
		}
		e.MustSubmit(task)
	}
	var wg sync.WaitGroup
	for cpu := 0; cpu < 16; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e.Schedule(cpu)
			}
		}(cpu)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, o := range observations {
		if !o.cs.IsSet(o.cpu) {
			t.Fatalf("task with cpuset %s ran on CPU %d", o.cs, o.cpu)
		}
	}
	if len(observations) != n {
		t.Logf("note: %d of %d tasks executed (rest remain queued)", len(observations), n)
	}
}
