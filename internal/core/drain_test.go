package core

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/cpuset"
	"pioman/internal/topology"
)

// Tests for the batched-dequeue fast path: drain, enqueueChain, the
// cached placement tables, the sharded/derived statistics, and
// ResetStats across every queue protection variant. Run with -race.

// TestConcurrentBurstyAllKinds hammers the batched drain path: producers
// submit bursts (so drains detach real batches, not single tasks) of
// pinned, chip-wide and global tasks while one scheduler goroutine per
// CPU drains. Every task must execute exactly once, on an allowed CPU.
func TestConcurrentBurstyAllKinds(t *testing.T) {
	for _, kind := range []QueueKind{QueueSpinlock, QueueMutex, QueueLockFree} {
		t.Run(kind.String(), func(t *testing.T) {
			topo := topology.Kwak()
			e := New(Config{Topology: topo, QueueKind: kind})
			const producers = 4
			const bursts = 30
			const burstLen = 16
			total := producers * bursts * burstLen

			var executed atomic.Int64
			var badCPU atomic.Int64
			stop := make(chan struct{})
			var swg sync.WaitGroup
			for cpu := 0; cpu < topo.NCPUs; cpu++ {
				swg.Add(1)
				go func(cpu int) {
					defer swg.Done()
					for {
						e.Schedule(cpu)
						select {
						case <-stop:
							for e.Schedule(cpu) > 0 {
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
					for bu := 0; bu < bursts; bu++ {
						tasks := make([]Task, burstLen)
						for i := range tasks {
							switch i % 3 {
							case 0:
								tasks[i].CPUSet = cpuset.New((p*burstLen + i) % topo.NCPUs)
							case 1:
								chip := (p + i) % 4
								tasks[i].CPUSet = cpuset.NewRange(chip*4, chip*4+3)
							case 2:
								// empty: global queue, any CPU
							}
							tasks[i].Fn = func(arg any) bool {
								task := arg.(*Task)
								cpu := int(task.lastCPU.Load())
								if !task.CPUSet.IsEmpty() && !task.CPUSet.IsSet(cpu) {
									badCPU.Add(1)
								}
								executed.Add(1)
								return true
							}
							tasks[i].Arg = &tasks[i]
							e.MustSubmit(&tasks[i])
						}
						for i := range tasks {
							e.WaitActive(&tasks[i], p%topo.NCPUs)
						}
					}
				}(p)
			}
			pwg.Wait()
			close(stop)
			swg.Wait()

			if got := executed.Load(); got != int64(total) {
				t.Errorf("executed %d tasks, want %d", got, total)
			}
			if n := badCPU.Load(); n != 0 {
				t.Errorf("%d executions on disallowed CPUs", n)
			}
			if e.Pending() != 0 {
				t.Errorf("Pending = %d after completion", e.Pending())
			}
		})
	}
}

// TestStatsMatchQueueCounters is the accounting regression test for the
// sharded/derived counters: at quiescence the per-queue enqueue/dequeue
// totals must tie out exactly against the engine-level stats —
//
//	Σ Enqueues == Submitted + Requeues + Skips
//	Σ Dequeues == Executions + Skips
//
// with Submitted equal to the number of Submit calls actually made.
func TestStatsMatchQueueCounters(t *testing.T) {
	for _, kind := range []QueueKind{QueueSpinlock, QueueMutex, QueueLockFree} {
		t.Run(kind.String(), func(t *testing.T) {
			e := New(Config{Topology: topology.Kwak(), QueueKind: kind})
			submits := 0

			// Plain pinned tasks.
			for i := 0; i < 10; i++ {
				e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(i % 16)})
				submits++
			}
			// A repeat task that takes 4 runs.
			countdown := 4
			e.MustSubmit(&Task{
				Fn:      func(any) bool { countdown--; return countdown == 0 },
				CPUSet:  cpuset.New(2),
				Options: Repeat,
			})
			submits++
			// A task CPU 0 must skip (global queue, restricted set).
			skippy := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(3, 4)}
			e.MustSubmit(skippy)
			submits++

			e.Schedule(0) // skips skippy at the global queue
			for cpu := 0; cpu < 16; cpu++ {
				for e.Schedule(cpu) > 0 {
				}
			}
			if e.Pending() != 0 {
				t.Fatalf("Pending = %d, want 0", e.Pending())
			}

			s := e.Stats()
			if s.Submitted != uint64(submits) {
				t.Errorf("Submitted = %d, want %d", s.Submitted, submits)
			}
			if s.Skips == 0 {
				t.Error("expected at least one skip")
			}
			if s.Requeues != 3 {
				t.Errorf("Requeues = %d, want 3", s.Requeues)
			}
			var enq, deq uint64
			for _, q := range e.Queues() {
				enq += q.Enqueues()
				deq += q.Dequeues()
			}
			if enq != s.Submitted+s.Requeues+s.Skips {
				t.Errorf("Σenqueues = %d, want Submitted+Requeues+Skips = %d",
					enq, s.Submitted+s.Requeues+s.Skips)
			}
			if deq != s.Executions+s.Skips {
				t.Errorf("Σdequeues = %d, want Executions+Skips = %d",
					deq, s.Executions+s.Skips)
			}
			var exec uint64
			for _, n := range s.ExecPerCPU {
				exec += n
			}
			if exec != s.Executions {
				t.Errorf("ΣExecPerCPU = %d, want Executions = %d", exec, s.Executions)
			}
		})
	}
}

// TestStatsTieOutWithStealing extends the accounting invariants to work
// stealing: with thieves migrating and re-homing tasks, the per-queue
// totals must still satisfy
//
//	Σ Enqueues == Submitted + Requeues + Skips
//	Σ Dequeues == Executions + Skips
//
// and the steal counters must tie out among themselves:
//
//	Σ StealPerCPU == StealTasks ≤ Executions,  StealHits ≤ StealAttempts.
func TestStatsTieOutWithStealing(t *testing.T) {
	for _, kind := range []QueueKind{QueueSpinlock, QueueMutex, QueueLockFree} {
		t.Run(kind.String(), func(t *testing.T) {
			e := New(Config{
				Topology:  topology.Borderline(),
				QueueKind: kind,
				Steal:     StealConfig{Policy: StealFullTree},
			})
			submits := 0
			// Unconstrained tasks parked on CPU 0's leaf: steal fodder.
			for i := 0; i < 20; i++ {
				if err := e.SubmitLocal(&Task{Fn: func(any) bool { return true }}, 0); err != nil {
					t.Fatal(err)
				}
				submits++
			}
			// A pinned task misplaced on CPU 0's leaf: must be re-homed by
			// a thief (a skip), then executed by its own CPU.
			pinned := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(5)}
			if err := e.SubmitLocal(pinned, 0); err != nil {
				t.Fatal(err)
			}
			submits++
			// A repeat task, so requeues participate in the totals.
			countdown := 3
			e.MustSubmit(&Task{
				Fn:      func(any) bool { countdown--; return countdown == 0 },
				CPUSet:  cpuset.New(1),
				Options: Repeat,
			})
			submits++

			// Thieves drain everything; CPU 5 picks up the re-homed task.
			for cpu := 0; cpu < 8; cpu++ {
				thief := (cpu + 1) % 8
				for e.Schedule(thief) > 0 {
				}
			}
			for e.Schedule(5) > 0 {
			}
			for e.Schedule(1) > 0 {
			}
			if e.Pending() != 0 {
				t.Fatalf("Pending = %d, want 0", e.Pending())
			}
			if !pinned.Done() {
				t.Fatal("re-homed pinned task never executed")
			}

			s := e.Stats()
			if s.Submitted != uint64(submits) {
				t.Errorf("Submitted = %d, want %d", s.Submitted, submits)
			}
			if s.StealTasks == 0 || s.StealHits == 0 {
				t.Errorf("expected steals, got %+v", s)
			}
			var enq, deq uint64
			for _, q := range e.Queues() {
				enq += q.Enqueues()
				deq += q.Dequeues()
			}
			if enq != s.Submitted+s.Requeues+s.Skips {
				t.Errorf("Σenqueues = %d, want Submitted+Requeues+Skips = %d",
					enq, s.Submitted+s.Requeues+s.Skips)
			}
			if deq != s.Executions+s.Skips {
				t.Errorf("Σdequeues = %d, want Executions+Skips = %d",
					deq, s.Executions+s.Skips)
			}
			var perCPU uint64
			for _, n := range s.StealPerCPU {
				perCPU += n
			}
			if perCPU != s.StealTasks {
				t.Errorf("ΣStealPerCPU = %d, want StealTasks = %d", perCPU, s.StealTasks)
			}
			if s.StealTasks > s.Executions {
				t.Errorf("StealTasks = %d exceeds Executions = %d", s.StealTasks, s.Executions)
			}
			if s.StealHits > s.StealAttempts {
				t.Errorf("StealHits = %d exceeds StealAttempts = %d", s.StealHits, s.StealAttempts)
			}

			// ResetStats must clear the steal counters with everything else.
			e.ResetStats()
			s = e.Stats()
			if s.StealAttempts != 0 || s.StealHits != 0 || s.StealTasks != 0 {
				t.Errorf("steal stats after reset = %+v, want all zero", s)
			}
		})
	}
}

// TestDrainBatchesUnderOneLock verifies the core claim of batched
// dequeue: scheduling N pending tasks takes ~N/batch consumer-side lock
// acquisitions, not N.
func TestDrainBatchesUnderOneLock(t *testing.T) {
	e := New(Config{Topology: topology.Kwak()})
	const n = 64 // two default batches
	for i := 0; i < n; i++ {
		e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)})
	}
	if got := e.Schedule(0); got != n {
		t.Fatalf("Schedule ran %d, want %d", got, n)
	}
	q := e.QueueFor(cpuset.New(0))
	drains, drained := q.DrainStats()
	if drained != n {
		t.Errorf("drained = %d, want %d", drained, n)
	}
	if drains != 2 {
		t.Errorf("drains = %d, want 2 (batch size 32)", drains)
	}
	acq, _ := q.LockStats()
	// n single enqueues + 2 drains; far below the seed's n+n.
	if want := uint64(n + 2); acq != want {
		t.Errorf("lock acquisitions = %d, want %d", acq, want)
	}
}

// TestDrainBatchOne degenerates the batch size to 1 and checks it
// reproduces the seed's lock-per-task behaviour, keeping the ablation
// comparable.
func TestDrainBatchOne(t *testing.T) {
	e := New(Config{Topology: topology.Kwak(), DrainBatch: 1})
	const n = 8
	for i := 0; i < n; i++ {
		e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)})
	}
	if got := e.Schedule(0); got != n {
		t.Fatalf("Schedule ran %d, want %d", got, n)
	}
	q := e.QueueFor(cpuset.New(0))
	drains, drained := q.DrainStats()
	if drained != n || drains != n {
		t.Errorf("drains/drained = %d/%d, want %d/%d", drains, drained, n, n)
	}
}

// TestPutBacksUseOneChainEnqueue checks that CPU-set mismatches found in
// one drained batch are re-enqueued with a single chain append, and that
// the put-back preserves the tasks for an allowed CPU.
func TestPutBacksUseOneChainEnqueue(t *testing.T) {
	e := New(Config{Topology: topology.Kwak()})
	const n = 6
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i].Fn = func(any) bool { return true }
		tasks[i].CPUSet = cpuset.New(3, 4) // global queue, CPUs 3-4 only
		e.MustSubmit(&tasks[i])
	}
	if got := e.Schedule(0); got != 0 {
		t.Fatalf("CPU 0 executed %d tasks, want 0", got)
	}
	if got := e.Stats().Skips; got != n {
		t.Errorf("Skips = %d, want %d", got, n)
	}
	q := e.QueueFor(cpuset.New(3, 4))
	// n individual submit enqueues + 1 put-back chain + 1 drain.
	acq, _ := q.LockStats()
	if want := uint64(n + 2); acq != want {
		t.Errorf("lock acquisitions = %d, want %d (one chained put-back)", acq, want)
	}
	for cpu := 3; cpu <= 4; cpu++ {
		for e.Schedule(cpu) > 0 {
		}
	}
	for i := range tasks {
		if !tasks[i].Done() {
			t.Fatalf("task %d lost in put-back", i)
		}
	}
}

// TestCachedPlacementMatchesFindCovering guards the leaf/byID tables:
// placement through the fast path must agree with the topology walk for
// every single-CPU set, and QueueFor must agree with FindCovering for
// arbitrary sets.
func TestCachedPlacementMatchesFindCovering(t *testing.T) {
	topo := topology.Kwak()
	e := New(Config{Topology: topo})
	for cpu := 0; cpu < topo.NCPUs; cpu++ {
		got := e.QueueFor(cpuset.New(cpu)).Node()
		want := topo.FindCovering(cpuset.New(cpu))
		if got != want {
			t.Errorf("QueueFor({%d}) = %v, want %v", cpu, got, want)
		}
		if got.Kind != topology.Core || got.Index != cpu {
			t.Errorf("QueueFor({%d}) not the per-core leaf: %v", cpu, got)
		}
	}
	for mask := 0; mask < 1<<16; mask += 37 {
		cs := setFromMask(uint16(mask))
		if got, want := e.QueueFor(cs).Node(), topo.FindCovering(cs); got != want {
			t.Errorf("QueueFor(%s) = %v, want %v", cs, got, want)
		}
	}
	// Out-of-range single CPU falls back to the tree walk (global queue).
	if got := e.QueueFor(cpuset.New(99)).Node(); got != topo.Root {
		t.Errorf("QueueFor({99}) = %v, want root", got)
	}
}

// TestResetStatsClearsAllInstrumentation is the regression test for the
// ResetStats fix: after a workload on each queue kind — global queue
// included — every counter the engine reports must read zero.
func TestResetStatsClearsAllInstrumentation(t *testing.T) {
	for _, kind := range []QueueKind{QueueSpinlock, QueueMutex, QueueLockFree} {
		t.Run(kind.String(), func(t *testing.T) {
			e := New(Config{Topology: topology.Kwak(), QueueKind: kind})
			for i := 0; i < 8; i++ {
				e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(i % 16)})
			}
			e.MustSubmit(&Task{Fn: func(any) bool { return true }})
			for cpu := 0; cpu < 16; cpu++ {
				for e.Schedule(cpu) > 0 {
				}
			}
			e.ResetStats()
			s := e.Stats()
			if s.Submitted != 0 || s.Executions != 0 || s.Requeues != 0 || s.Skips != 0 {
				t.Errorf("Stats after reset = %+v, want all zero", s)
			}
			for _, q := range e.Queues() {
				if q.Enqueues() != 0 || q.Dequeues() != 0 {
					t.Errorf("queue %v counters %d/%d after reset", q.Node(), q.Enqueues(), q.Dequeues())
				}
				if acq, cont := q.LockStats(); acq != 0 || cont != 0 {
					t.Errorf("queue %v LockStats %d/%d after reset", q.Node(), acq, cont)
				}
				if drains, drained := q.DrainStats(); drains != 0 || drained != 0 {
					t.Errorf("queue %v DrainStats %d/%d after reset", q.Node(), drains, drained)
				}
				if q.Retries() != 0 {
					t.Errorf("queue %v Retries %d after reset", q.Node(), q.Retries())
				}
			}
		})
	}
}

// TestResetStatsKeepsQueuedTasksSchedulable: resetting stats while
// tasks are in flight must not strand them — the derived queue length
// survives the counter reset (regression test: warmup, ResetStats,
// measure, with a Repeat polling task alive across the reset).
func TestResetStatsKeepsQueuedTasksSchedulable(t *testing.T) {
	for _, kind := range []QueueKind{QueueSpinlock, QueueMutex, QueueLockFree} {
		t.Run(kind.String(), func(t *testing.T) {
			e := New(Config{Topology: topology.Kwak(), QueueKind: kind})
			task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
			polls := 0
			poller := &Task{
				Fn:      func(any) bool { polls++; return polls >= 3 },
				CPUSet:  cpuset.New(1),
				Options: Repeat,
			}
			e.MustSubmit(task)
			e.MustSubmit(poller)
			e.Schedule(1) // one poll; poller re-enqueued across the reset
			e.ResetStats()
			if n := e.Schedule(0); n != 1 {
				t.Fatalf("Schedule(0) after reset ran %d, want 1", n)
			}
			for i := 0; i < 5 && !poller.Done(); i++ {
				e.Schedule(1)
			}
			if !task.Done() || !poller.Done() {
				t.Fatalf("tasks stranded by ResetStats: done=%v/%v", task.Done(), poller.Done())
			}
			s := e.Stats()
			if s.Submitted != 2 {
				t.Errorf("Submitted = %d, want 2 (both tasks re-enter accounting at reset)", s.Submitted)
			}
		})
	}
}

// TestScheduleOneWithDeepBacklog: ScheduleOne must execute exactly one
// task even when far more are queued (the drain must not detach a full
// batch it cannot execute).
func TestScheduleOneWithDeepBacklog(t *testing.T) {
	e := New(Config{Topology: topology.Kwak()})
	const n = 100
	for i := 0; i < n; i++ {
		e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)})
	}
	if !e.ScheduleOne(0) {
		t.Fatal("ScheduleOne found nothing")
	}
	if got := e.Pending(); got != n-1 {
		t.Errorf("Pending = %d, want %d", got, n-1)
	}
	if got := e.Stats().Executions; got != 1 {
		t.Errorf("Executions = %d, want 1", got)
	}
}

var allKinds = []QueueKind{QueueSpinlock, QueueMutex, QueueLockFree}

// TestDrainBoundIsCountAtFirstLock: one Schedule pass runs exactly the
// tasks its queue held at the pass's first locked look — a backlog that
// fits one drain (taken whole) and one that spans several (cut by a
// walk). Tasks a body submits to the same queue and a Repeat task's
// retry land behind that bound and wait for the next pass.
func TestDrainBoundIsCountAtFirstLock(t *testing.T) {
	for _, kind := range allKinds {
		for _, n := range []int{20, 70} { // the default batch is 32
			e := New(Config{Topology: topology.Kwak(), QueueKind: kind})
			for i := 0; i < n; i++ {
				task := &Task{CPUSet: cpuset.New(0)}
				switch i % 10 {
				case 0: // submits one more task behind the bound
					task.Fn = func(any) bool {
						e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)})
						return true
					}
				case 5: // retries on every pass, behind the bound
					task.Options = Repeat
					task.Fn = func(any) bool { return false }
				default:
					task.Fn = func(any) bool { return true }
				}
				e.MustSubmit(task)
			}
			retries := (n + 4) / 10
			submitted := (n + 9) / 10
			// A pass that reaches past its bound may never end (a retry
			// re-enqueued behind it runs again), so each runs under a
			// deadline.
			pass := func() int {
				ran := make(chan int, 1)
				go func() { ran <- e.Schedule(0) }()
				select {
				case n := <-ran:
					return n
				case <-time.After(10 * time.Second):
					t.Fatalf("%v, %d queued: a pass did not end", kind, n)
					return 0
				}
			}
			if got := pass(); got != n {
				t.Errorf("%v, %d queued: first pass ran %d, want %d", kind, n, got, n)
			}
			if got, want := pass(), submitted+retries; got != want {
				t.Errorf("%v, %d queued: second pass ran %d, want %d (body submissions and retries)", kind, n, got, want)
			}
			if p := e.Pending(); p != retries {
				t.Errorf("%v, %d queued: %d pending after two passes, want the %d retries", kind, n, p, retries)
			}
		}
	}
}

// checkQueueCounts checks a quiescent queue's exact count against its
// list and Len, and its stealable count against a recount. The locked
// variants' list is walked under the lock, which also checks that tail
// is its last task; the lock-free variant keeps no count of its own.
func checkQueueCounts(t *testing.T, phase string, q *Queue) {
	t.Helper()
	if q.kind != QueueLockFree {
		q.lock()
		n := 0
		var last *Task
		for x := q.head.Load(); x != nil; x = x.next {
			last = x
			n++
		}
		count, tail := q.count, q.tail
		q.unlock()
		if count != n || q.Len() != n {
			t.Errorf("%s: %v count %d, Len %d, list holds %d", phase, q.Node(), count, q.Len(), n)
		}
		if tail != last {
			t.Errorf("%s: %v tail is not the list's last task", phase, q.Node())
		}
	}
	if got, want := q.stealable.Load(), recountStealable(q); got != want {
		t.Errorf("%s: %v stealable count = %d, recount %d", phase, q.Node(), got, want)
	}
}

// TestQueueCountExactUnderRace: four schedulers on Borderline submit
// pinned, multi-CPU and unconstrained tasks, some of them Repeat, by
// Submit and by SubmitLocal, while scheduling and stealing from each
// other. Whenever the engine is quiescent — mid-run with a backlog, and
// once everything has run — every queue's exact count equals the length
// of its list and Len, and the stealable count equals a recount. Run
// with -race.
func TestQueueCountExactUnderRace(t *testing.T) {
	cpus := []int{0, 1, 2, 5}
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := New(Config{
				Topology:  topology.Borderline(),
				QueueKind: kind,
				Steal:     StealConfig{Policy: StealFullTree},
			})
			const perWorker = 200
			total := int64(len(cpus) * perWorker)
			var done atomic.Int64
			onDone := func(*Task) { done.Add(1) }
			tasks := make([][]Task, len(cpus))
			var wg sync.WaitGroup
			for w, cpu := range cpus {
				tasks[w] = make([]Task, perWorker)
				wg.Add(1)
				go func(w, cpu int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(w), 11))
					for i := range tasks[w] {
						task := &tasks[w][i]
						task.Fn = func(any) bool { return true }
						task.OnDone = onDone
						if rng.IntN(4) == 0 {
							task.Options = Repeat
							task.Fn = func(any) bool { return task.Runs() >= 3 }
						}
						switch rng.IntN(3) {
						case 0:
							task.CPUSet = cpuset.New(cpus[rng.IntN(len(cpus))])
						case 1:
							task.CPUSet = cpuset.New(cpus[rng.IntN(len(cpus))], cpus[rng.IntN(len(cpus))])
						}
						var err error
						if rng.IntN(2) == 0 {
							err = e.SubmitLocal(task, cpu)
						} else {
							err = e.Submit(task)
						}
						if err != nil {
							t.Error(err)
							return
						}
						if i%10 == 9 {
							e.Schedule(cpu)
							e.ScheduleOne(cpu)
						}
					}
				}(w, cpu)
			}
			wg.Wait()
			for _, q := range e.Queues() {
				checkQueueCounts(t, "mid-run", q)
			}
			if t.Failed() {
				t.FailNow() // a broken count may have lost tasks
			}
			deadline := time.Now().Add(time.Minute)
			for _, cpu := range cpus {
				wg.Add(1)
				go func(cpu int) {
					defer wg.Done()
					for done.Load() < total && time.Now().Before(deadline) {
						if e.Schedule(cpu) == 0 {
							runtime.Gosched()
						}
					}
				}(cpu)
			}
			wg.Wait()
			if n := done.Load(); n != total {
				t.Fatalf("%d of %d tasks completed: tasks were lost", n, total)
			}
			for _, q := range e.Queues() {
				checkQueueCounts(t, "at quiescence", q)
				if n := q.Len(); n != 0 {
					t.Errorf("%v Len = %d with everything run", q.Node(), n)
				}
			}
		})
	}
}
